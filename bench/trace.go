package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// span is one timed interval of a traced leg. Spans of one leg share its
// number; Parent is the ID of the span that caused this one, 0 for a leg.
// Times are seconds since the trace began. An app.Step span covers all of
// one rank's steps in the leg: Calls of them, Busy seconds inside them.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Leg    int     `json:"leg"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus what the child spans cover
	Rank   *int    `json:"rank,omitempty"`
	Calls  int     `json:"calls,omitempty"`
	Busy   float64 `json:"busy_s,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans in memory until the run ends. Only the driver
// goroutine adds spans; what the rank goroutines time sits in their app
// wrappers until the leg has joined them.
type tracer struct {
	origin time.Time
	spans  []span
	leg    int // traced legs so far; the number continues across chains
}

func (t *tracer) at(when time.Time) float64 { return when.Sub(t.origin).Seconds() }

// add appends a span and returns it; the pointer is good until the next add.
func (t *tracer) add(name string, leg, parent int, start, end time.Time) *span {
	return t.addAt(name, leg, parent, t.at(start), t.at(end))
}

func (t *tracer) addAt(name string, leg, parent int, start, end float64) *span {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Leg: leg, Name: name, Start: start, End: end})
	return &t.spans[len(t.spans)-1]
}

// timed runs f inside a new span.
func (t *tracer) timed(name string, leg, parent int, f func()) *span {
	start := time.Now()
	f()
	return t.add(name, leg, parent, start, time.Now())
}

// tracedRestart is rt.RestartFromStore taken apart into its public calls,
// each under its own span. The spans inside rt.Restart are added by
// tracePhases once the leg's stamps are known.
func (c *chain) tracedRestart(cfg rt.Config, epoch int, factory func(int) rt.App, tr *tracer, s *legSample) (rep *rt.Report, restartID int, err error) {
	leg := tr.leg
	var (
		man *ckpt.Manifest
		img *ckpt.JobImage
	)
	tr.timed("ckpt.GetManifest", leg, 0, func() { man, err = c.store.GetManifest(epoch) })
	if err != nil {
		return nil, 0, err
	}
	load := tr.timed("ckpt.LoadJobImage", leg, 0, func() { img, err = ckpt.LoadJobImage(c.store, epoch) })
	if err != nil {
		return nil, 0, err
	}
	s.loadS, s.loadBytes = load.dur(), img.TotalBytes()
	restartID = tr.timed("rt.Restart", leg, 0, func() { rep, err = rt.Restart(cfg, img, factory) }).ID
	if err != nil {
		return nil, restartID, err
	}
	tr.timed("netmodel.RestartReadCost", leg, 0, func() {
		s.readVT = c.in.model.RestartReadCost(netmodel.StorageTier(man.Tier), ckpt.ReadSetOf(man), c.in.nodes)
	})
	return rep, restartID, nil
}

// tracePhases closes a traced leg: the leg's own span becomes the parent of
// the driver's calls, rt.Restart is split at the wrapper's two stamps, and
// every rank's Restore, Step and SnapshotTo times move out of its wrapper.
func (t *tracer) tracePhases(firstCall int, start, end time.Time, restartID int, clock *legClock, apps []*stampApp) {
	leg := t.leg
	root := t.add("leg", leg, 0, start, end).ID
	for i := firstCall; i < len(t.spans)-1; i++ {
		t.spans[i].Parent = root
	}
	if restartID == 0 || clock.restoredAt.IsZero() || clock.triggerAt.IsZero() {
		return // a failed leg keeps only the calls it made
	}
	restart := t.spans[restartID-1]
	restored, trigger := t.at(clock.restoredAt), t.at(clock.triggerAt)
	restore := t.addAt("rt.restore", leg, restartID, restart.Start, restored).ID
	advance := t.addAt("rt.advance", leg, restartID, restored, trigger).ID
	capture := t.addAt("rt.checkpoint", leg, restartID, trigger, restart.End).ID
	for _, a := range apps {
		if a == nil {
			continue
		}
		rank := a.rank
		if !a.restore.start.IsZero() {
			s := t.add("app.Restore", leg, restore, a.restore.start, a.restore.end)
			s.Rank, s.Bytes = &rank, a.restoreBytes
		}
		if a.done > 0 {
			s := t.add("app.Step", leg, advance, a.stepSpan.start, a.stepSpan.end)
			s.Rank, s.Calls, s.Busy = &rank, a.done, a.stepBusy.Seconds()
		}
		if !a.snap.start.IsZero() {
			s := t.add("app.SnapshotTo", leg, capture, a.snap.start, a.snap.end)
			s.Rank, s.Bytes = &rank, a.snapBytes
		}
	}
}

// selfTimes fills every span's Self: its duration minus the part of it that
// its child spans cover, children clipped to the parent and overlaps
// counted once.
func (t *tracer) selfTimes() {
	children := map[int][]int{}
	for i := range t.spans {
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.dur() - covered
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// unaccounted is the share of the traced legs' time that no span below the
// leg explains: the self time of the leg spans and of the rt.Restart spans
// (which the three phases tile) over the legs' duration. The restart,
// advance and checkpoint phases reconcile with the leg when it is small.
func (t *tracer) unaccounted() float64 {
	var self, total float64
	for i := range t.spans {
		switch t.spans[i].Name {
		case "leg":
			total += t.spans[i].dur()
			self += t.spans[i].Self
		case "rt.Restart":
			self += t.spans[i].Self
		}
	}
	return self / total
}

// outDir is where the span files go.
var outDir = filepath.Join("bench", "out")

// write stores the spans as trace-<workload>.json in outDir.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Host     string `json:"host"`
		Spans    []span `json:"spans"`
	}{workload, seed, hostRecord(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
