package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. parent is the index of the enclosing span (-1 for a root);
// op groups every span of one operation (a point, an iteration, a request).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	op         int64
}

// spans keeps the traced run's spans in memory; they are written out once,
// at exit. A nil *spans records nothing, so untraced runs pay one nil check
// per call site.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (s *spans) begin(name string, parent int, op int64) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.list[i].end = now
	s.mu.Unlock()
}

// add records a span whose times were taken by the caller.
func (s *spans) add(name string, start, end time.Time, parent int, op int64) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, start: start.Sub(s.epoch), end: end.Sub(s.epoch), parent: parent, op: op})
	return len(s.list) - 1
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(list []span) []time.Duration {
	children := make([][]int, len(list))
	for i, sp := range list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(list))
	for i, sp := range list {
		if sp.end < sp.start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return list[kids[a]].start < list[kids[b]].start })
		covered := time.Duration(0)
		cursor := sp.start
		for _, k := range kids {
			s, e := max(list[k].start, cursor), min(list[k].end, sp.end)
			if e > s {
				covered += e - s
				cursor = e
			}
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), one track per operation, with each span's self
// time and parent in its args.
func (s *spans) writeChrome(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	self := selfTimes(s.list)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	io.WriteString(w, "{\"traceEvents\":[\n")
	for i, sp := range s.list {
		if sp.end < sp.start {
			continue
		}
		ev := event{Name: sp.name, Ph: "X", Ts: us(sp.start), Dur: us(sp.end - sp.start), Pid: 1, Tid: sp.op % 64,
			Args: map[string]any{"op": sp.op, "parent": sp.parent, "self_us": us(self[i])}}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			io.WriteString(w, ",\n")
		}
		w.Write(b)
	}
	io.WriteString(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes a per-name table of call counts, total and self
// time to w.
func (s *spans) printSelfTimes(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	self := selfTimes(s.list)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for i, sp := range s.list {
		if sp.end < sp.start {
			continue
		}
		a := by[sp.name]
		if a == nil {
			a = &agg{}
			by[sp.name] = a
			names = append(names, sp.name)
		}
		a.n++
		a.total += sp.end - sp.start
		a.self += self[i]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", n, a.n, ms(a.total), ms(a.self))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
