package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	genroute "repro"
	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/layout"
	"repro/internal/plane"
)

// schedule is one negotiation configuration, expressed both as Engine
// options and as the congest.Config the Engine derives from them (the
// traced mirror calls congest directly and must use the same values).
type schedule struct {
	pitch, weight, step, historyWeight int64
	historyGain, passes                int
}

// pitch4 is the Engine's default schedule at pitch 4, where macro grids are
// feasible and routing converges in the first pass.
var pitch4 = schedule{pitch: 4, weight: genroute.DefaultPenaltyWeight, historyGain: 1, passes: congest.DefaultMaxPasses}

// macroGrid16 is the escalating schedule of the MacroGrid16 benchmark at
// pitch 8 (capacity 1), where 16×16 grids congest.
var macroGrid16 = schedule{pitch: 8, weight: 40, step: 40, historyGain: 1, historyWeight: 10, passes: 8}

func (s schedule) options(workers int, extra ...genroute.Option) []genroute.Option {
	return append([]genroute.Option{
		genroute.WithPitch(s.pitch),
		genroute.WithPenaltyWeight(s.weight),
		genroute.WithWeightStep(s.step),
		genroute.WithHistory(s.historyGain, s.historyWeight),
		genroute.WithMaxPasses(s.passes),
		genroute.WithWorkers(workers),
	}, extra...)
}

func (s schedule) congest(workers int) congest.Config {
	return congest.Config{Pitch: s.pitch, Weight: s.weight, WeightStep: s.step, MaxPasses: s.passes,
		HistoryGain: s.historyGain, HistoryWeight: s.historyWeight, Workers: workers}
}

// input is one generated layout of a workload.
type input struct {
	n    int
	seed int64
	l    *layout.Layout
	json []byte
}

func makeInputs(n int, seeds []int64) ([]input, error) {
	in := make([]input, len(seeds))
	for i, s := range seeds {
		l, err := gen.MacroGrid(n, n, 40, 30, 12, s)
		if err != nil {
			return nil, err
		}
		if in[i], err = newInput(n, s, l); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func newInput(n int, seed int64, l *layout.Layout) (input, error) {
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		return input{}, err
	}
	return input{n: n, seed: seed, l: l, json: buf.Bytes()}, nil
}

// chipSeed is the layout seed of chip64, and of eco-serve32 on the 32×32
// grid. Routing effort differs by up to 60% between seeds of one grid (on
// 64×64, seed 1 takes about 1.6 times as long as seed 2), so a layout drawn
// from --seed would put that spread into every gate, set-up included; seed 3
// is close to the median.
const chipSeed = 3

// chipCtlEvery thins chip64's column-control nets to those of every fourth
// column. The n control nets of an n×n macro grid each have a terminal in
// every row and take nearly all of its first-pass time (on 64×64 all 64 of
// them take about 22 s, the 8128 two-pin nets 0.2 s), so with all of them
// a round is one sample of the measuring time. With 16 a round takes about
// 5 s and a run takes the median of four to seven, while the die, the cells
// and the obstacle index, whose query cost grows with die size, stay those
// of the full 64×64 grid.
const chipCtlEvery = 4

// chipInput is chip64's layout at size n: MacroGrid seed chipSeed with the
// control nets of every chipCtlEvery-th column. The run seed shuffles the
// other nets among their places; the control nets keep theirs, so every
// seed routes the same nets in the same schedule of expensive nets, and
// only the bytes decoded change.
func chipInput(n int, runSeed int64) ([]input, error) {
	l, err := gen.MacroGrid(n, n, 40, 30, 12, chipSeed)
	if err != nil {
		return nil, err
	}
	var nets []layout.Net
	var other []int // places of the nets that are not control nets
	for _, nt := range l.Nets {
		var col int
		if _, err := fmt.Sscanf(nt.Name, "ctl%d", &col); err == nil {
			if col%chipCtlEvery != 0 {
				continue
			}
		} else {
			other = append(other, len(nets))
		}
		nets = append(nets, nt)
	}
	rand.New(rand.NewSource(runSeed)).Shuffle(len(other), func(i, j int) {
		nets[other[i]], nets[other[j]] = nets[other[j]], nets[other[i]]
	})
	l.Nets = nets
	if err := l.Validate(); err != nil {
		return nil, err
	}
	in, err := newInput(n, chipSeed, l)
	return []input{in}, err
}

// prepare is the cold set-up a batch user pays: decode the layout bytes and
// build an Engine over them.
func prepare(in input, opts []genroute.Option) (*genroute.Engine, error) {
	l, err := layout.ReadJSON(bytes.NewReader(in.json))
	if err != nil {
		return nil, err
	}
	return genroute.NewEngine(l, opts...)
}

// seedRow is the outcome of negotiating one layout.
type seedRow struct {
	Seed          int64   `json:"seed"`
	Pass1Overflow int     `json:"pass1_overflow"`
	FinalOverflow int     `json:"final_overflow"`
	Passes        int     `json:"passes"`
	Rerouted      int     `json:"rerouted"`
	Expanded      int     `json:"expanded"`
	Wirelength    int64   `json:"wirelength"`
	NegotiateMS   float64 `json:"negotiate_ms"`
	Fingerprint   string  `json:"fingerprint"`
}

func newSeedRow(seed int64, res *genroute.NegotiatedResult, wall time.Duration) seedRow {
	row := seedRow{Seed: seed, Passes: len(res.Passes), NegotiateMS: ms(wall),
		Pass1Overflow: res.Passes[0].Overflow, Expanded: res.Passes[0].Stats.Expanded}
	last := res.Passes[len(res.Passes)-1]
	row.FinalOverflow, row.Wirelength = last.Overflow, int64(last.TotalLength)
	for _, p := range res.Passes[1:] {
		row.Rerouted += len(p.Rerouted)
	}
	return row
}

// runBatch is the untraced run of chip64 and congest16: set every layout up
// a few times (see moreSetups), then negotiate all of them (one round),
// round after round until the measuring time has passed.
func (r *run) runBatch(in []input, sch schedule) {
	ctx := context.Background()
	var passMS []float64
	opts := sch.options(r.workers, genroute.WithProgress(func(p genroute.Progress) {
		passMS = append(passMS, ms(p.Elapsed)) // one negotiation at a time
	}))

	var engines []*genroute.Engine
	var setups []float64
	var spent time.Duration
	for len(setups) == 0 || moreSetups(len(setups), spent) {
		engines = make([]*genroute.Engine, len(in))
		runtime.GC()
		start := time.Now()
		for i := range in {
			e, err := prepare(in[i], opts)
			if !r.op(fmt.Sprintf("prepare seed %d", in[i].seed), err) {
				return
			}
			engines[i] = e
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		spent += d
	}

	rows := make([]seedRow, len(in))
	var rounds []float64
	runtime.GC()
	deadline := time.Now().Add(r.seconds)
	for {
		start := time.Now()
		for i, e := range engines {
			t := time.Now()
			res, err := e.RouteNegotiated(ctx)
			if !r.op(fmt.Sprintf("negotiate seed %d", in[i].seed), err) {
				return
			}
			rows[i] = newSeedRow(in[i].seed, res, time.Since(t))
		}
		rounds = append(rounds, time.Since(start).Seconds())
		if time.Now().After(deadline) {
			break
		}
	}
	heap := retainedHeapMB()

	var wl int64
	for i, e := range engines {
		ws := wiresOf(e.Result().Nets)
		rows[i].Fingerprint = ws.fingerprint()
		wl += ws.length()
		r.checkState(fmt.Sprintf("seed %d", in[i].seed), e.Layout(), ws, e.Overflow(), sch.pitch)
		r.exactAdd("overflow_final", e.Overflow())
	}
	r.rows = rows
	r.detail["fingerprint"] = combinedFingerprint(rows)
	for _, row := range rows {
		r.exactAdd("search.expanded", row.Expanded)
		r.exactAdd("congest.passes", row.Passes)
		r.exactAdd("congest.rerouted", row.Rerouted)
		r.exactAdd("wirelength", int(row.Wirelength))
	}
	r.set("setup_s", median(setups))
	r.detail["setups"] = len(setups)
	r.set("write_s", median(rounds))
	r.set("write_p50_ms", median(passMS))
	r.detail["write_tail_ms"] = tail(passMS)
	r.set("wirelength", float64(wl))
	r.set("heap_mb", heap)
	r.detail["rounds"] = len(rounds)
	r.detail["write_samples"] = len(passMS)
	r.detail["write_tail_quantile"] = tailQuantile(len(passMS))
}

// checkState runs the independent checks on one installed routing state:
// every net routed and connected, no wire inside a cell, and the reported
// overflow equal to a naive recount over the passages of the layout.
func (r *run) checkState(what string, l *layout.Layout, ws wireSet, reportedOverflow int, pitch int64) {
	unrouted, err := checkRouted(ws)
	r.attempted += len(ws)
	r.failed += unrouted
	if err != nil {
		r.note(what+": routed", err)
	}
	r.check(what+": wires clear every cell interior", checkInteriors(l, ws))
	r.check(what+": every net connected", checkConnected(l, ws))
	ix, err := plane.FromLayout(l)
	if err == nil {
		var passages []congest.Passage
		if passages, err = congest.Extract(ix, pitch); err == nil {
			if got := naiveOverflow(passages, ws); got != reportedOverflow {
				err = fmt.Errorf("naive recount gives overflow %d, the program reports %d", got, reportedOverflow)
			}
		}
	}
	r.check(what+": reported overflow equals a naive recount", err)
}

// combinedFingerprint is the route fingerprint of a workload: the layout's
// own for one layout, else a hash over the per-seed fingerprints in seed
// order.
func combinedFingerprint(rows []seedRow) string {
	if len(rows) == 1 {
		return rows[0].Fingerprint
	}
	sorted := append([]seedRow(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seed < sorted[b].Seed })
	h := sha256.New()
	for _, row := range sorted {
		fmt.Fprintf(h, "%d:%s\n", row.Seed, row.Fingerprint)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
