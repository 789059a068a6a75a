// Package quickcheck runs testing/quick property checks from a fixed seed,
// so a failing input shows up on every run and reproduces from the seed
// the failure prints. Randomised exploration belongs to native fuzz
// targets (go test -fuzz), not to these checks.
package quickcheck

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Seed seeds the input generator of every check.
const Seed int64 = 1

// Check runs quick.Check on the property f with maxCount inputs (0 keeps
// testing/quick's default) drawn from a generator seeded with Seed, and
// reports a failure as a test error that names the seed.
func Check(t testing.TB, f any, maxCount int) {
	t.Helper()
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(Seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("%v\nquickcheck seed %d", err, Seed)
	}
}
