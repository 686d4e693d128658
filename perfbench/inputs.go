package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	genroute "repro"
	"repro/internal/geom"
	"repro/internal/layout"
)

// ecoOp is one staged edit in groutd's /eco wire format.
type ecoOp struct {
	Op   string          `json:"op"`
	Net  json.RawMessage `json:"net,omitempty"`
	Name string          `json:"name,omitempty"`
	DX   int64           `json:"dx,omitempty"`
	DY   int64           `json:"dy,omitempty"`
}

// apply stages the ops on an engine transaction.
func apply(tx *genroute.Edit, ops []ecoOp) error {
	for _, op := range ops {
		var err error
		switch op.Op {
		case "add_net":
			var n genroute.Net
			if err = json.Unmarshal(op.Net, &n); err == nil {
				err = tx.AddNet(n)
			}
		case "remove_net":
			err = tx.RemoveNet(op.Name)
		case "move_cell":
			err = tx.MoveCell(op.Name, op.DX, op.DY)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

const (
	ripNets  = 5 // nets ripped and re-added by one bus edit
	moveStep = 2 // a move shifts a cell by 2 units (the gaps are 12)
)

// ecoScript generates a seeded sequence of ECO writes against a layout and
// keeps a client-side model of the layout they produce. Most writes rip up
// and re-add ripNets two-pin buses with their current pins; with moveEvery
// > 0, every moveEvery-th write instead moves one macro by moveStep along
// one axis, or moves a displaced macro back. A macro is never displaced by
// more than moveStep, so every gap stays at least 12 - 2·moveStep wide and
// every edit is legal.
type ecoScript struct {
	l         *layout.Layout // the model: the layout after the writes so far
	rng       *rand.Rand
	moveEvery int
	buses     []string // two-pin bus nets, sorted
	off       []geom.Point
	net       map[string]int
}

func newECOScript(l *layout.Layout, seed int64, moveEvery int) *ecoScript {
	s := &ecoScript{l: l.Clone(), rng: rand.New(rand.NewSource(seed)), moveEvery: moveEvery,
		off: make([]geom.Point, len(l.Cells)), net: map[string]int{}}
	for i, n := range s.l.Nets {
		s.net[n.Name] = i
		if len(n.Terminals) == 2 && (strings.HasPrefix(n.Name, "hb") || strings.HasPrefix(n.Name, "vb")) {
			s.buses = append(s.buses, n.Name)
		}
	}
	sort.Strings(s.buses)
	return s
}

// next returns write k of the script and advances the model past it.
func (s *ecoScript) next(k int) []ecoOp {
	if s.moveEvery > 0 && k%s.moveEvery == s.moveEvery-1 {
		return s.move()
	}
	var ops []ecoOp
	picked := map[string]bool{}
	for len(picked) < ripNets {
		name := s.buses[s.rng.Intn(len(s.buses))]
		if picked[name] {
			continue
		}
		picked[name] = true
		raw, err := json.Marshal(s.l.Nets[s.net[name]])
		if err != nil {
			panic(err) // a layout.Net always marshals
		}
		ops = append(ops, ecoOp{Op: "remove_net", Name: name}, ecoOp{Op: "add_net", Net: raw})
	}
	return ops
}

func (s *ecoScript) move() []ecoOp {
	ci := s.rng.Intn(len(s.l.Cells))
	d := geom.Pt(-s.off[ci].X, -s.off[ci].Y) // back to the original place
	if d == (geom.Point{}) {
		d = [4]geom.Point{{X: moveStep}, {X: -moveStep}, {Y: moveStep}, {Y: -moveStep}}[s.rng.Intn(4)]
	}
	s.off[ci] = s.off[ci].Add(d)
	c := &s.l.Cells[ci]
	c.Box = c.Box.Translate(d)
	for ni := range s.l.Nets {
		for ti := range s.l.Nets[ni].Terminals {
			pins := s.l.Nets[ni].Terminals[ti].Pins
			for pi := range pins {
				if int(pins[pi].Cell) == ci {
					pins[pi].Pos = pins[pi].Pos.Add(d)
				}
			}
		}
	}
	return []ecoOp{{Op: "move_cell", Name: c.Name, DX: d.X, DY: d.Y}}
}

// script returns the first n writes.
func (s *ecoScript) script(n int) [][]ecoOp {
	out := make([][]ecoOp, n)
	for k := range out {
		out[k] = s.next(k)
	}
	return out
}

// sampleNets picks n net names with a seeded generator (with repetition).
func sampleNets(l *layout.Layout, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = l.Nets[rng.Intn(len(l.Nets))].Name
	}
	return out
}
