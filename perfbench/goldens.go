package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/machine"
	"repro/internal/ssb"
)

// The goldens are regenerated with `go run . -write-goldens` from this
// directory; they change only when the simulated results do.
//
//go:embed goldens
var goldenFS embed.FS

// loadSweepDigests returns one bandwidth digest per grid point, in grid
// order.
func loadSweepDigests() ([]uint32, error) {
	raw, err := goldenFS.ReadFile("goldens/sweep.bin")
	if err != nil {
		return nil, err
	}
	if len(raw) != 4*gridSize {
		return nil, fmt.Errorf("goldens/sweep.bin holds %d bytes, want %d (4 per grid point)", len(raw), 4*gridSize)
	}
	out := make([]uint32, gridSize)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out, nil
}

// ssbGoldens holds, per query, the digest of ssb.Reference's result, and
// per engine and query the simulated seconds of a run on a fresh machine in
// flight order.
type ssbGoldens struct {
	SF      float64              `json:"sf"`
	Results map[string]string    `json:"results"`
	Seconds map[string][]float64 `json:"seconds"`
}

func loadSSBGoldens() (*ssbGoldens, error) {
	raw, err := goldenFS.ReadFile("goldens/ssb.json")
	if err != nil {
		return nil, err
	}
	var g ssbGoldens
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("goldens/ssb.json: %w", err)
	}
	if g.SF != ssbSF {
		return nil, fmt.Errorf("goldens/ssb.json is for sf %g, the workload runs sf %g", g.SF, ssbSF)
	}
	return &g, nil
}

// resultDigest hashes a query result independent of map order.
func resultDigest(r ssb.Result) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%q=%d\n", k, r[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// check compares one query run with the goldens and describes a mismatch;
// "" means the run is correct.
func (g *ssbGoldens) check(engine, qid string, res ssb.Result, secs float64) string {
	if got, want := resultDigest(res), g.Results[qid]; got != want {
		return fmt.Sprintf("%s %s: result digest %s, reference %s", engine, qid, got, want)
	}
	qi := queryIndex(qid)
	want := g.Seconds[engine]
	if qi < 0 || qi >= len(want) {
		return fmt.Sprintf("%s %s: no golden simulated time", engine, qid)
	}
	if secs != want[qi] {
		return fmt.Sprintf("%s %s: simulated %v s, golden %v s", engine, qid, secs, want[qi])
	}
	return ""
}

func queryIndex(id string) int {
	for i, q := range ssb.Queries() {
		if q.ID == id {
			return i
		}
	}
	return -1
}

// regenerateGoldens recomputes both golden files into dir: every grid
// point's bandwidth digest, the reference result digests, and each flight
// engine's simulated seconds.
func regenerateGoldens(dir string) error {
	healthy, faulted := machine.DefaultConfig(), faultedConfig()
	var bin bytes.Buffer
	for idx := 0; idx < gridSize; idx++ {
		res, err := measurePoint(idx, healthy, faulted)
		if err != nil {
			p, f := gridPoint(idx)
			return fmt.Errorf("grid point %d (%+v, faulted %v): %w", idx, p, f, err)
		}
		binary.Write(&bin, binary.LittleEndian, bandwidthDigest(res.Bandwidth))
	}
	if err := os.WriteFile(filepath.Join(dir, "sweep.bin"), bin.Bytes(), 0o644); err != nil {
		return err
	}

	data, err := ssb.Generate(ssbSF)
	if err != nil {
		return err
	}
	g := ssbGoldens{SF: ssbSF, Results: map[string]string{}, Seconds: map[string][]float64{}}
	for _, q := range ssb.Queries() {
		g.Results[q.ID] = resultDigest(ssb.Reference(data, q))
	}
	// Seconds are recorded unchecked first, then every flight is replayed
	// against the finished goldens, so a result that disagrees with the
	// reference fails here instead of being written down.
	for step := range awareLadder {
		fs := runFlight(data, flightEngines(step), nil, nil, -1, 0)
		for k, v := range fs.seconds {
			g.Seconds[k] = v
		}
	}
	for step := range awareLadder {
		if fs := runFlight(data, flightEngines(step), &g, nil, -1, 0); fs.failed > 0 {
			return fmt.Errorf("ladder step %s: %d of %d query runs disagree with the goldens",
				awareLadder[step].name, fs.failed, fs.queries)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ssb.json"), append(out, '\n'), 0o644)
}
