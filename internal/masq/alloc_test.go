package masq

import (
	"testing"

	"masq/internal/simtime"
)

// TestCreateDestroyCQAllocs: a warmed-up create_cq plus destroy_cq through
// the frontend allocates no more than the device's own CQ object does —
// the virtio ring, the typed command and the backend dispatch add nothing.
func TestCreateDestroyCQAllocs(t *testing.T) {
	b, fe := frontendBed(t)
	defer b.eng.Close()
	dev, fn := b.host.Dev, fe.sess.fn
	// perRound drives one create/destroy round per Put from a parked proc.
	perRound := func(round func(p *simtime.Proc)) float64 {
		kick := simtime.NewQueue[struct{}](b.eng)
		b.eng.Spawn("cq-churn", func(p *simtime.Proc) {
			for {
				kick.Get(p)
				round(p)
			}
		})
		return testing.AllocsPerRun(100, func() {
			kick.Put(struct{}{})
			b.eng.Run()
		})
	}
	device := perRound(func(p *simtime.Proc) {
		dev.DestroyCQ(p, nil, dev.CreateCQ(p, fn, 32))
	})
	frontend := perRound(func(p *simtime.Proc) {
		cq := fe.call(p, command{op: opCreateCQ, n: 32}).cq
		if r := fe.call(p, command{op: opDestroyCQ, cq: cq}); r.err != nil {
			t.Error(r.err)
		}
	})
	if frontend > device {
		t.Fatalf("create+destroy CQ: %v allocs through the frontend, %v on the device", frontend, device)
	}
	t.Logf("create+destroy CQ: %v allocs through the frontend, %v on the device", frontend, device)
}
