package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	genroute "repro"
	"repro/internal/layout"
)

// writesPerSecond sizes eco-serve32's write script from --seconds. The
// script has a fixed length, not a fixed duration, so that the final routes
// depend only on the seed: at 20 seconds it is 320 writes, which crosses
// the journal's 256-record compaction threshold once.
const writesPerSecond = 16

// ecoMoveEvery makes every 32nd eco-serve32 write a cell move. A move
// narrows a 12-unit gap to 10, which drops its capacity at pitch 4 from 3 to
// 2, so a move's repair ranges from tens of milliseconds to seconds; a
// larger share would let a handful of such repairs decide the run.
const ecoMoveEvery = 32

func (r *run) ecoWrites() int { return max(1, writesPerSecond*int(r.seconds/time.Second)) }

// ecoSession is a prepared, negotiated groutd session over one layout.
type ecoSession struct {
	s         *server
	hash      string
	prepareMS float64
	setup     time.Duration // POST plus negotiate, client-observed
}

// openECOSession starts a server in dir, POSTs the layout and negotiates it
// until the session accepts edits.
func (r *run) openECOSession(dir string, in input) (*ecoSession, error) {
	s, err := startServer(dir, r.workers)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sr, _, err := s.open(in.json, pitch4.pitch)
	if err == nil {
		if _, err = s.negotiate(sr.Hash); err == nil {
			return &ecoSession{s: s, hash: sr.Hash, prepareMS: sr.PrepareMS, setup: time.Since(start)}, nil
		}
	}
	if serr := s.stop(); serr != nil {
		err = fmt.Errorf("%w (and stopping the server: %v)", err, serr)
	}
	return nil, err
}

// runECOServe is eco-serve32's untraced run: set a journaled groutd
// session up a few times (a fresh server and snapshot directory each time,
// see moreSetups), then run the closed write/read loop on the last one.
func (r *run) runECOServe(in input) {
	script := newECOScript(in.l, r.seed, ecoMoveEvery)
	writes := script.script(r.ecoWrites())
	reads := sampleNets(in.l, 4096, r.seed+1)

	var setups []float64
	var spent time.Duration
	var sess *ecoSession
	for rep := 0; ; rep++ {
		var err error
		sess, err = r.openECOSession(filepath.Join(r.scratch, fmt.Sprintf("server%d", rep)), in)
		if !r.op("open session", err) {
			return
		}
		setups = append(setups, sess.setup.Seconds())
		spent += sess.setup
		if !moreSetups(len(setups), spent) {
			break
		}
		r.op("stop server", sess.s.stop())
	}
	defer func() { r.op("stop server", sess.s.stop()) }()

	runtime.GC()
	st := runLoop(sess.s, sess.hash, writes, reads, nil, 0)
	heap := retainedHeapMB()
	r.attempted += st.attempted
	r.failed += st.failed

	ws, overflow := r.checkServed(sess.s, sess.hash, st, script.l, pitch4.pitch, r.coldBase(in, pitch4.pitch))
	r.detail["fingerprint"] = ws.fingerprint()
	r.exactAdd("wirelength", int(ws.length()))
	r.exactAdd("eco.acked", len(st.acked))
	r.exactAdd("overflow_final", overflow)
	if sr, err := sess.s.session(sess.hash); r.op("GET sessions", err) {
		r.detail["journal_records"] = sr.JournalRecords
		r.detail["compacted"] = sr.JournalRecords < len(st.acked)
	}
	r.set("setup_s", median(setups))
	r.detail["setups"] = len(setups)
	rounds, moves := busRounds(st.ecoLat, st.ecoMove)
	r.set("write_s", median(rounds)/1000)
	r.set("write_p50_ms", median(st.ecoLat))
	r.detail["write_tail_ms"] = tail(st.ecoLat)
	r.detail["move_p50_ms"] = median(moves)
	r.detail["moves"] = len(moves)
	r.set("wirelength", float64(ws.length()))
	r.set("heap_mb", heap)
	r.detail["write_samples"] = len(st.ecoLat)
	r.detail["write_tail_quantile"] = tailQuantile(len(st.ecoLat))
	r.detail["route_samples"] = len(st.routeLat)
	r.detail["route_p50_ms"] = median(st.routeLat)
	r.detail["route_p95_ms"] = quantile(st.routeLat, 0.95)
	r.detail["ops_per_s"] = float64(len(st.ecoLat)+len(st.routeLat)) / st.wall.Seconds()
	r.detail["shed"] = st.shed
	r.detail["loop_s"] = st.wall.Seconds()
}

// busRounds splits the writes at the cell moves: it returns the total
// latency of the bus edits in each stretch that a move ends, and the moves'
// own latencies. A move's repair costs from tens of milliseconds to seconds
// depending on the cell, so leaving moves out of the rounds keeps write_s
// from turning on which cells a seed happens to move.
func busRounds(lat []float64, move []bool) (rounds, moves []float64) {
	acc := 0.0
	for i, l := range lat {
		if !move[i] {
			acc += l
			continue
		}
		rounds = append(rounds, acc)
		moves = append(moves, l)
		acc = 0
	}
	return rounds, moves
}

// serverOptions are the Engine options groutd gives a session POSTed with
// ?pitch=: its worker count and the pitch, everything else at the defaults.
func (r *run) serverOptions(pitch int64) []genroute.Option {
	return []genroute.Option{genroute.WithWorkers(r.workers), genroute.WithPitch(pitch)}
}

// coldBase rebuilds the state a cold session starts from: the layout
// prepared and negotiated with groutd's options.
func (r *run) coldBase(in input, pitch int64) func() (*genroute.Engine, error) {
	return func() (*genroute.Engine, error) {
		e, err := prepare(in, r.serverOptions(pitch))
		if err != nil {
			return nil, err
		}
		_, err = e.RouteNegotiated(context.Background())
		return e, err
	}
}

// checkServed fetches a session's final wiring and checks it: the state
// checks against the client's model of the edited layout, plus equality
// with a direct Engine replay of the acknowledged writes over the session's
// starting state (base) and with a recovery from the session's journal
// alone.
func (r *run) checkServed(s *server, hash string, st *loopStats, model *layout.Layout, pitch int64,
	base func() (*genroute.Engine, error)) (wireSet, int) {
	wr, _, err := s.finalWires(hash)
	if !r.op("GET wires", err) {
		return nil, 0
	}
	ws := wr.wireSet()
	r.checkState("served session", model, ws, wr.Overflow, pitch)
	replay, err := replayWires(context.Background(), base, st.acked)
	if err == nil && replay.fingerprint() != ws.fingerprint() {
		err = fmt.Errorf("replay routes %s, the session serves %s", replay.fingerprint(), ws.fingerprint())
	}
	r.check("final /wires equals a direct Engine replay of the acknowledged writes", err)
	jw, err := journalWires(s.journalPath(hash), filepath.Join(r.scratch, "journal-copy.jrnl"), r.serverOptions(pitch))
	if err == nil && jw.fingerprint() != ws.fingerprint() {
		err = fmt.Errorf("journal recovery routes %s, the session serves %s", jw.fingerprint(), ws.fingerprint())
	}
	r.check("final /wires equals LoadEngineJournal of the session's journal", err)
	return ws, wr.Overflow
}
