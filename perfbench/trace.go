package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the traced run records around a call into a
// layer. Spans of one simulation run share its run key as id, spans of
// one service job share the job id; parent names the span that caused
// this one (the experiment, or the sweep). count carries the work
// counted at the same boundary (events executed, for a run).
type span struct {
	name   string
	id     string
	parent string
	start  time.Time
	end    time.Time
	count  uint64
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs skip tracing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as a Chrome trace (open it in Perfetto or
// chrome://tracing). Overlapping spans of one name are spread over
// lanes so concurrent runs show side by side.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string][]time.Time{} // per span name: end of the last span on each lane
	events := make([]event, 0, len(spans))
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].start
	}
	tids := map[string]int{}
	for _, s := range spans {
		ends := lanes[s.name]
		lane := len(ends)
		for i, e := range ends {
			if !e.After(s.start) {
				lane = i
				break
			}
		}
		if lane == len(ends) {
			ends = append(ends, s.end)
		} else {
			ends[lane] = s.end
		}
		lanes[s.name] = ends
		if _, ok := tids[s.name]; !ok {
			tids[s.name] = 100 * (len(tids) + 1)
		}
		args := map[string]any{}
		if s.id != "" {
			args["id"] = s.id
		}
		if s.parent != "" {
			args["parent"] = s.parent
		}
		if s.count != 0 {
			args["count"] = s.count
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tids[s.name] + lane, Args: args,
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
