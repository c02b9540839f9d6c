package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// engineExperiments are the catalogue entries that construct an SSB engine.
var engineExperiments = []string{
	"fig14a", "fig14b", "tab01", "ssd01", "ext02", "ext03", "ext06", "ext07", "fault04",
}

// TestEngineGolden pins every engine-backed experiment to recorded bytes:
// its rendered text with metrics, its metrics JSON, and the SHA-256 of its
// timeline (which carries every stream label). The goldens under
// testdata/engines are the output of
//
//	experiments -quick -sf 0.02 -j 1 -metrics -id <id> -metrics-json <id>.metrics.json -trace DIR
//
// with `sha256sum *.trace.json` run in DIR for traces.sha256.
func TestEngineGolden(t *testing.T) {
	// Go may fuse multiply-add on arm64, ppc64 and s390x, so float results
	// (and every byte derived from them) can differ there.
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; float bytes may differ on %s", runtime.GOARCH)
	}
	dir := filepath.Join("testdata", "engines")
	sums := readTraceSums(t, filepath.Join(dir, "traces.sha256"))
	traceDir := t.TempDir()
	for _, id := range engineExperiments {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{SF: 0.02, Quick: true, Jobs: 1, EmitMetrics: true, TraceDir: traceDir}
		var text, js bytes.Buffer
		agg, err := RunList(context.Background(), cfg, []Experiment{e}, &text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join(dir, id+".txt"), text.Bytes())
		compareGolden(t, filepath.Join(dir, id+".metrics.json"), js.Bytes())

		name := id + ".trace.json"
		raw, err := os.ReadFile(filepath.Join(traceDir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != sums[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, sums[name])
		}
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n%s", path, firstDiff(string(got), string(want)))
	}
}

// readTraceSums parses sha256sum output into file name → hex digest.
func readTraceSums(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			out[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
