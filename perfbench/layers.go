package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	genroute "repro"
	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
)

// tracedSpec is what a workload's traced run exercises beyond the flow and
// the probes every workload runs.
type tracedSpec struct {
	sch       schedule
	moveEvery int  // every moveEvery-th ECO write moves a cell (0: none)
	serve     bool // run the groutd closed loop on a cold session (eco-serve32)
	scale     bool // time the 32×32 twin for the .m32/.m64 and scale.* metrics (chip64)
}

// probeWrites is the length of the in-process ECO probe.
const probeWrites = 8

// mirror is the outcome of one traced pass through the Engine's layers.
type mirror struct {
	l        *layout.Layout
	ix       *plane.Index
	spans    [][2]int
	passages []congest.Passage
	res      *congest.NegotiateResult

	decode, validate, build, extract time.Duration
}

// runMirror calls the layers in the Engine's own order — what NewEngine
// and RouteNegotiated do inside — with a span around each call. Passes are
// recorded from the OnPass hook, which reports each pass's own elapsed
// time: pass 1 is the first-pass search (router.RouteLayoutCtx), later
// passes are rip-up passes.
func runMirror(ctx context.Context, tr *tracer, parent int, in input, cfg congest.Config) (*mirror, error) {
	m := &mirror{}
	var l *layout.Layout
	var err error
	if m.decode = tr.do("layout.decode", parent, func() { l, err = layout.ReadJSON(bytes.NewReader(in.json)) }); err != nil {
		return nil, err
	}
	if m.validate = tr.do("layout.validate", parent, func() { err = l.Validate() }); err != nil {
		return nil, err
	}
	tr.do("layout.clone", parent, func() { m.l = l.Clone() })
	if m.build = tr.do("plane.build", parent, func() { m.ix, m.spans, err = plane.FromLayoutSpans(m.l) }); err != nil {
		return nil, err
	}
	tr.do("router.new", parent, func() { router.New(m.ix, router.Options{}) })
	if m.extract = tr.do("congest.extract", parent, func() { m.passages, err = congest.Extract(m.ix, cfg.Pitch) }); err != nil {
		return nil, err
	}
	neg := tr.begin("congest.negotiate", parent)
	cfg.OnPass = func(n int, p congest.Pass) {
		end := time.Now()
		name := "congest.ripup"
		if n == 1 {
			name = "router.first_pass"
		}
		tr.add(name, neg, end.Add(-p.Elapsed), end)
	}
	m.res, err = congest.NegotiatePrepared(ctx, m.l, m.ix, m.passages, cfg)
	tr.end(neg)
	return m, err
}

func (m *mirror) segments() []geom.Seg {
	var segs []geom.Seg
	for _, nr := range m.res.Final().Nets {
		segs = append(segs, nr.Segments...)
	}
	return segs
}

func netSegs(nets []router.NetRoute) [][]geom.Seg {
	out := make([][]geom.Seg, len(nets))
	for i := range nets {
		out[i] = nets[i].Segments
	}
	return out
}

// sink keeps query results alive so the timed loops are not optimized away.
var sink int

// segBlockedNs is the mean SegBlocked time over every installed segment.
func segBlockedNs(tr *tracer, parent int, ix *plane.Index, segs []geom.Seg) float64 {
	d := tr.do("plane.segblocked", parent, func() {
		for _, s := range segs {
			if _, b := ix.SegBlocked(s); b {
				sink++
			}
		}
	})
	return ratio(float64(d.Nanoseconds()), float64(len(segs)))
}

// referenceFlow runs the workload's flow through the Engine, untraced:
// decode, NewEngine and RouteNegotiated on every layout. It returns the
// engines, their route fingerprints and the flow's wall time.
func (r *run) referenceFlow(ctx context.Context, in []input, opts []genroute.Option) ([]*genroute.Engine, []string, time.Duration, bool) {
	runtime.GC()
	engines := make([]*genroute.Engine, len(in))
	start := time.Now()
	for i := range in {
		e, err := prepare(in[i], opts)
		if err == nil {
			_, err = e.RouteNegotiated(ctx)
		}
		if !r.op(fmt.Sprintf("reference flow seed %d", in[i].seed), err) {
			return nil, nil, 0, false
		}
		engines[i] = e
	}
	wall := time.Since(start)
	fps := make([]string, len(in))
	for i, e := range engines {
		fps[i] = wiresOf(e.Result().Nets).fingerprint()
	}
	return engines, fps, wall, true
}

// sameRoutes checks that two flows over the workload's layouts routed
// alike, layout by layout.
func (r *run) sameRoutes(what string, in []input, got, want []string) {
	for i := range in {
		var err error
		if got[i] != want[i] {
			err = fmt.Errorf("routes %s, want %s", got[i], want[i])
		}
		r.check(fmt.Sprintf("seed %d: %s", in[i].seed, what), err)
	}
}

// traced is the traced run shared by every workload: the untraced
// reference flow, the same flow through the traced mirror, the reference
// flow again, then probes of the remaining layers on one of the workload's
// layouts.
func (r *run) traced(in []input, spec tracedSpec) {
	ctx := context.Background()
	tr := newTracer(fmt.Sprintf("%s-seed%d-pid%d", r.workload, r.seed, os.Getpid()))
	defer func() {
		if err := tr.write(r.traces, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)); err != nil {
			r.note("writing spans", err)
		}
	}()
	opts := spec.sch.options(r.workers)
	cfg := spec.sch.congest(r.workers)

	// 1. The untraced reference flow, twice: a warm-up, which pays the
	// process's cold start (heap growth, page faults) and is not timed, and
	// the timed run before the mirror. It runs again after the mirror (3),
	// and the mirror is compared with the mean of the two timed runs, so
	// that neither the cold start nor the order reads as tracing cost.
	_, refFP, _, ok := r.referenceFlow(ctx, in, opts)
	if !ok {
		return
	}
	_, beforeFP, before, ok := r.referenceFlow(ctx, in, opts)
	if !ok {
		return
	}
	r.sameRoutes("the Engine routes the same twice", in, beforeFP, refFP)
	// The probes use the lowest-seeded layout (for congest16 that is seed
	// 10, the converging control), whatever order the flow ran in.
	lowest := 0
	for i := range in {
		if in[i].seed < in[lowest].seed {
			lowest = i
		}
	}

	// 2. The traced mirror of that flow.
	runtime.GC()
	root := tr.begin("flow", 0)
	var probe *mirror
	var decode, validate, build, extract, firstPass, ripup time.Duration
	var pass1, passes, rerouted, final, expanded, generated int
	var rows []seedRow
	for i := range in {
		m, err := runMirror(ctx, tr, root, in[i], cfg)
		if !r.op(fmt.Sprintf("traced flow seed %d", in[i].seed), err) {
			return
		}
		fp := wiresOf(m.res.Final().Nets).fingerprint()
		r.sameRoutes("the traced layer mirror routes exactly as the Engine", in[i:i+1], []string{fp}, refFP[i:i+1])
		decode += m.decode
		validate += m.validate
		build += m.build
		extract += m.extract
		var wall time.Duration
		for _, p := range m.res.Passes {
			wall += p.Elapsed
		}
		row := newSeedRow(in[i].seed, m.res, wall)
		row.Fingerprint = fp
		rows = append(rows, row)
		p1 := m.res.Passes[0]
		firstPass += p1.Elapsed
		pass1 += p1.Overflow
		expanded += p1.Stats.Expanded
		generated += p1.Stats.Generated
		passes += len(m.res.Passes)
		for _, p := range m.res.Passes[1:] {
			ripup += p.Elapsed
			rerouted += len(p.Rerouted)
		}
		final += m.res.Passes[len(m.res.Passes)-1].Overflow
		if i == lowest {
			probe = m
		}
	}
	tr.end(root)
	traced := time.Duration(tr.spans[root-1].End - tr.spans[root-1].Start)
	cover := tr.childCover(root)

	// 3. The reference flow again; its engines serve the ECO probe.
	engines, afterFP, after, ok := r.referenceFlow(ctx, in, opts)
	if !ok {
		return
	}
	r.sameRoutes("the Engine routes the same after the mirror", in, afterFP, refFP)
	e0 := engines[lowest]
	engines = nil

	untraced := (before + after) / 2
	r.detail["fingerprint"] = combinedFingerprint(rows)
	r.rows = rows
	r.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	r.set("trace.uncovered_frac", 1-float64(cover)/float64(untraced.Nanoseconds()))
	r.detail["untraced_flow_s"] = []float64{before.Seconds(), after.Seconds()}
	r.detail["traced_flow_s"] = traced.Seconds()
	r.set("layout.decode_ms", ms(decode))
	r.set("layout.validate_ms", ms(validate))
	r.set("plane.build_ms", ms(build))
	r.set("congest.extract_ms", ms(extract))
	r.set("router.first_pass_ms", ms(firstPass))
	r.set("search.expanded", float64(expanded))
	r.set("search.generated", float64(generated))
	r.set("router.ns_per_expansion", ratio(float64(firstPass.Nanoseconds()), float64(expanded)))
	r.set("congest.pass1_overflow", float64(pass1))
	r.set("congest.passes", float64(passes))
	r.set("congest.rerouted", float64(rerouted))
	r.set("congest.ripup_ms", ms(ripup))
	r.set("congest.ms_per_reroute", ratio(ms(ripup), float64(rerouted)))
	r.set("congest.overflow_drop_per_reroute", ratio(float64(pass1-final), float64(rerouted)))
	r.set("congest.overflow_final", float64(final))
	r.exactAdd("search.expanded", expanded)
	r.exactAdd("congest.passes", passes)
	r.exactAdd("congest.rerouted", rerouted)
	r.exactAdd("overflow_final", final)

	// 4. Layer probes.
	r.probeQueries(ctx, tr, probe, spec.sch.pitch)
	if spec.scale {
		r.scale(ctx, tr, cfg, probe)
	} else {
		r.notExercised(func(name string) bool {
			return strings.HasPrefix(name, "scale.") || strings.HasSuffix(name, ".m32") || strings.HasSuffix(name, ".m64")
		})
	}
	probe = nil
	if spec.serve {
		r.probeServe(tr, spec, in[lowest])
	} else {
		r.notExercised(func(name string) bool {
			return strings.HasPrefix(name, "serve.") || name == "journal.bytes_per_commit" || name == "journal.compactions"
		})
	}
	r.probeECO(ctx, tr, spec, e0)

	self := tr.selfTimes()
	for _, layer := range []string{"layout", "plane", "router", "congest", "genroute", "snapshot", "serve"} {
		r.set(layer+".self_ms", self[layer])
	}
}

// notExercised reports the per-layer metrics that match as 0, and lists
// them in the detail line: the workload does no such work, but the result
// format needs every per-layer metric from every traced run.
func (r *run) notExercised(match func(name string) bool) {
	names, _ := r.detail["not_exercised"].([]string)
	for _, d := range r.perLayer {
		if _, ok := r.metrics[d.Name]; !ok && match(d.Name) {
			r.set(d.Name, 0)
			names = append(names, d.Name)
		}
	}
	r.detail["not_exercised"] = names
}

// probeQueries times the obstacle queries, per-net routing, the congestion
// map build and the index/passage splice of a cell move on the mirror's
// state.
func (r *run) probeQueries(ctx context.Context, tr *tracer, m *mirror, pitch int64) {
	segs := m.segments()
	r.set("plane.segblocked_ns", segBlockedNs(tr, 0, m.ix, segs))
	var pins []geom.Point
	for _, n := range m.l.Nets {
		for _, p := range n.AllPins() {
			pins = append(pins, p.Pos)
		}
	}
	d := tr.do("plane.pointblocked", 0, func() {
		for _, p := range pins {
			if _, b := m.ix.PointBlocked(p); b {
				sink++
			}
		}
	})
	r.set("plane.pointblocked_ns", ratio(float64(d.Nanoseconds()), float64(len(pins))))
	bounds := m.ix.Bounds()
	limit := map[geom.Dir]geom.Coord{geom.East: bounds.MaxX, geom.West: bounds.MinX, geom.North: bounds.MaxY, geom.South: bounds.MinY}
	d = tr.do("plane.rayhit", 0, func() {
		for _, p := range pins {
			for _, dir := range geom.Dirs {
				if m.ix.RayHit(p, dir, limit[dir]).Blocked {
					sink++
				}
			}
		}
	})
	r.set("plane.rayhit_ns", ratio(float64(d.Nanoseconds()), float64(4*len(pins))))

	netIdx := map[string]int{}
	for i, n := range m.l.Nets {
		netIdx[n.Name] = i
	}
	rt := router.New(m.ix, router.Options{})
	var routeMS []float64
	for _, name := range sampleNets(m.l, 64, r.seed+1) {
		var err error
		var nr router.NetRoute
		d := tr.do("router.route_net", 0, func() { nr, err = rt.RouteNetCtx(ctx, &m.l.Nets[netIdx[name]]) })
		if err == nil && !nr.Found {
			err = fmt.Errorf("net %s was not routed", name)
		}
		if r.op("route net "+name, err) {
			routeMS = append(routeMS, ms(d))
		}
	}
	r.set("router.route_net_ms", median(routeMS))

	var mapMS []float64
	nets := netSegs(m.res.Final().Nets)
	for k := 0; k < 3; k++ {
		mapMS = append(mapMS, ms(tr.do("congest.buildmap", 0, func() { congest.BuildMap(m.passages, nets) })))
	}
	r.set("congest.buildmap_ms", median(mapMS))

	// The splice an ECO cell move makes: the index edit, then the passage
	// re-extraction around the vacated and occupied rectangles.
	rng := rand.New(rand.NewSource(r.seed + 2))
	var editMS, extractMS []float64
	for k := 0; k < probeWrites; k++ {
		ci := rng.Intn(len(m.l.Cells))
		dxy := [4]geom.Point{{X: moveStep}, {X: -moveStep}, {Y: moveStep}, {Y: -moveStep}}[rng.Intn(4)]
		var removed []int
		var removedRects []geom.Rect
		for id := m.spans[ci][0]; id < m.spans[ci][1]; id++ {
			removed = append(removed, id)
			removedRects = append(removedRects, m.ix.Cell(id))
		}
		moved := m.l.Cells[ci]
		moved.Box = moved.Box.Translate(dxy)
		added := moved.ObstacleRects()
		var ix2 *plane.Index
		var remap []int32
		var err error
		d := tr.do("plane.edit", 0, func() { ix2, remap, err = m.ix.Edit(removed, added) })
		if !r.op("index edit", err) {
			continue
		}
		editMS = append(editMS, ms(d))
		addedIDs := make([]int, len(added))
		for j := range addedIDs {
			addedIDs[j] = ix2.NumCells() - len(added) + j
		}
		d = tr.do("congest.extract_edit", 0, func() {
			_, err = congest.ExtractEdit(ix2, pitch, m.passages, remap, removedRects, addedIDs)
		})
		if r.op("passage splice", err) {
			extractMS = append(extractMS, ms(d))
		}
	}
	r.set("plane.edit_ms", median(editMS))
	r.set("congest.extract_edit_ms", median(extractMS))
}

// probeECO commits the same seeded writes to the routed reference Engine
// and to a journaled twin loaded from its snapshot, timing the commit, its
// repair and the journal's cost, and checks that both end in the same
// routes and that the journal alone recovers them.
func (r *run) probeECO(ctx context.Context, tr *tracer, spec tracedSpec, e *genroute.Engine) {
	var cloneMS, saveMS []float64
	for k := 0; k < 3; k++ {
		var err error
		cloneMS = append(cloneMS, ms(tr.do("layout.clone_validate", 0, func() { err = e.Layout().Clone().Validate() })))
		if !r.op("validate a clone of the session layout", err) {
			return
		}
	}
	r.set("layout.clone_validate_ms", median(cloneMS))
	var snap bytes.Buffer
	for k := 0; k < 3; k++ {
		snap.Reset()
		var err error
		saveMS = append(saveMS, ms(tr.do("snapshot.save", 0, func() { err = e.Save(&snap) })))
		if !r.op("save snapshot", err) {
			return
		}
	}
	r.set("snapshot.save_ms", median(saveMS))

	path := filepath.Join(r.scratch, "probe.jrnl")
	opts := spec.sch.options(r.workers)
	ej, err := genroute.LoadEngine(bytes.NewReader(snap.Bytes()), e.Layout(), append(opts, genroute.WithJournalFile(path))...)
	if !r.op("load journaled twin", err) {
		return
	}
	defer ej.CloseJournal()

	var commitMS, repairMS, fixedMS, dirty, plainWall, journaledWall []float64
	for k, ops := range newECOScript(e.Layout(), r.seed, spec.moveEvery).script(probeWrites) {
		var res *genroute.ECOResult
		d := tr.do("genroute.commit", 0, func() {
			tx := e.Edit()
			if err = apply(tx, ops); err == nil {
				res, err = tx.Commit(ctx)
			}
		})
		if !r.op(fmt.Sprintf("probe write %d", k), err) {
			return
		}
		plainWall = append(plainWall, ms(d))
		var repair time.Duration
		if res.Repair != nil {
			for _, p := range res.Repair.Passes {
				repair += p.Elapsed
			}
		}
		commitMS = append(commitMS, ms(res.Elapsed))
		repairMS = append(repairMS, ms(repair))
		fixedMS = append(fixedMS, ms(res.Elapsed-repair))
		dirty = append(dirty, float64(len(res.Dirty)))

		d = tr.do("genroute.commit_journaled", 0, func() {
			tx := ej.Edit()
			if err = apply(tx, ops); err == nil {
				_, err = tx.Commit(ctx)
			}
		})
		if !r.op(fmt.Sprintf("journaled probe write %d", k), err) {
			return
		}
		journaledWall = append(journaledWall, ms(d))
	}
	r.set("eco.commit_ms", median(commitMS))
	r.set("eco.repair_ms", median(repairMS))
	r.set("eco.fixed_ms", median(fixedMS))
	r.set("eco.dirty", sum(dirty)/float64(len(dirty)))
	r.set("journal.overhead_ms", median(journaledWall)-median(plainWall))

	live := wiresOf(e.Result().Nets).fingerprint()
	var ferr error
	if twin := wiresOf(ej.Result().Nets).fingerprint(); twin != live {
		ferr = fmt.Errorf("journaled twin routes %s, plain engine %s", twin, live)
	}
	r.check("probe: journaled and plain engines route the same after the same writes", ferr)
	jw, err := journalWires(path, filepath.Join(r.scratch, "probe-copy.jrnl"), opts)
	if err == nil && jw.fingerprint() != live {
		err = fmt.Errorf("journal recovery routes %s, the live engine %s", jw.fingerprint(), live)
	}
	r.check("probe: LoadEngineJournal recovers the live routes", err)
}

// probeServe runs eco-serve32's groutd closed loop, traced, on a session
// opened cold (POST, negotiate).
func (r *run) probeServe(tr *tracer, spec tracedSpec, in input) {
	id := tr.begin("serve.open", 0)
	sess, err := r.openECOSession(filepath.Join(r.scratch, "serve"), in)
	tr.end(id)
	if !r.op("open session", err) {
		return
	}
	s, hash := sess.s, sess.hash
	defer func() { r.op("stop server", s.stop()) }()
	r.set("serve.prepare_ms", sess.prepareMS)

	script := newECOScript(in.l, r.seed, spec.moveEvery)
	writes := script.script(r.ecoWrites())
	loop := tr.begin("serve.loop", 0)
	st := runLoop(s, hash, writes, sampleNets(in.l, 4096, r.seed+1), tr, loop)
	tr.end(loop)
	r.attempted += st.attempted
	r.failed += st.failed
	var wiresMS []float64
	for k := 0; k < 3; k++ {
		id := tr.begin("serve.wires", 0)
		_, lat, err := s.finalWires(hash)
		tr.end(id)
		if r.op("GET wires", err) {
			wiresMS = append(wiresMS, ms(lat))
		}
	}
	r.set("serve.wires_ms", median(wiresMS))
	r.set("serve.eco_overhead_ms", overheads(st.ecoLat, st.ecoSrv))
	r.set("serve.route_overhead_ms", overheads(st.routeLat, st.routeSrv))
	r.set("serve.shed", float64(st.shed))
	r.set("serve.eco_samples", float64(len(st.ecoLat)))
	r.set("serve.route_p50_ms", median(st.routeLat))
	r.set("serve.route_p95_ms", quantile(st.routeLat, 0.95))
	r.set("serve.ops_per_s", float64(len(st.ecoLat)+len(st.routeLat))/st.wall.Seconds())
	r.set("journal.bytes_per_commit", median(st.journalBytes))
	r.set("journal.compactions", float64(st.compactions))
	ws, _ := r.checkServed(s, hash, st, script.l, spec.sch.pitch, r.coldBase(in, spec.sch.pitch))
	r.detail["served_fingerprint"] = ws.fingerprint()
}

// scale times the layers ROADMAP item 2 targets on chip64's layout at two
// sizes, the same way for both: the 64×64 figures are the mirror's (m64),
// the 32×32 ones come from the mirror run on the 32×32 twin.
func (r *run) scale(ctx context.Context, tr *tracer, cfg congest.Config, m64 *mirror) {
	ins, err := chipInput(32, r.seed)
	if !r.op("generate the 32×32 twin", err) {
		return
	}
	runtime.GC()
	m32, err := runMirror(ctx, tr, 0, ins[0], cfg)
	if !r.op("traced flow of the 32×32 twin", err) {
		return
	}
	got := map[int][4]float64{ // validate ms, segblocked ns, first pass ms, extract ms
		32: {ms(m32.validate), segBlockedNs(tr, 0, m32.ix, m32.segments()), ms(m32.res.Passes[0].Elapsed), ms(m32.extract)},
		64: {ms(m64.validate), r.metrics["plane.segblocked_ns"], ms(m64.res.Passes[0].Elapsed), ms(m64.extract)},
	}
	for i, name := range []string{"layout.validate_ms", "plane.segblocked_ns", "router.first_pass_ms", "congest.extract_ms"} {
		r.set(name+".m32", got[32][i])
		r.set(name+".m64", got[64][i])
	}
	r.set("scale.validate_ratio", ratio(got[64][0], got[32][0]))
	r.set("scale.segblocked_ratio", ratio(got[64][1], got[32][1]))
	r.set("scale.first_pass_ratio", ratio(got[64][2], got[32][2]))
}
