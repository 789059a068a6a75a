package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from the current output")

// goldenIDs are the control-path experiments whose rendered tables are
// committed under testdata/golden. None of them prints host time, so the
// rendering is a pure function of the code.
var goldenIDs = []string{
	"table1", "fig15", "fig16", "fig18",
	"abl-virtio-batch", "abl-conntrack", "abl-setup-rate", "abl-migrate",
}

// TestGolden renders each golden experiment and diffs it against its
// committed output. Run with -update to re-record after an intended change.
func TestGolden(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var sb strings.Builder
			e.Run().Render(&sb)
			got := sb.String()
			path := filepath.Join("testdata", "golden", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n%s", id, path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	return sb.String()
}
