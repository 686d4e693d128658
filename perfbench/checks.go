package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/router"
)

// The checks in this file decide correctness without the code under test:
// they scan cells, segments and passage cross-sections naively instead of
// asking plane.Index or congest.Map.

// seg is one wire segment as [ax, ay, bx, by] with (ax, ay) ≤ (bx, by).
type seg [4]int64

func canonSeg(ax, ay, bx, by int64) seg {
	if bx < ax || (bx == ax && by < ay) {
		ax, ay, bx, by = bx, by, ax, ay
	}
	return seg{ax, ay, bx, by}
}

// wire is one net's installed routing in canonical form.
type wire struct {
	Net    string
	Found  bool
	Length int64
	Segs   []seg // canonical, sorted
}

// wireSet is an installed routing state in canonical form: nets sorted by
// name, every segment oriented and sorted, so two states compare equal
// exactly when they install the same wires.
type wireSet []wire

func newWire(net string, found bool, length int64, segs []seg) wire {
	s := append([]seg(nil), segs...)
	sort.Slice(s, func(a, b int) bool {
		for k := 0; k < 4; k++ {
			if s[a][k] != s[b][k] {
				return s[a][k] < s[b][k]
			}
		}
		return false
	})
	return wire{Net: net, Found: found, Length: length, Segs: s}
}

func sortWires(ws wireSet) wireSet {
	sort.Slice(ws, func(a, b int) bool { return ws[a].Net < ws[b].Net })
	return ws
}

func wiresOf(nets []router.NetRoute) wireSet {
	ws := make(wireSet, len(nets))
	for i, n := range nets {
		segs := make([]seg, len(n.Segments))
		for k, s := range n.Segments {
			segs[k] = canonSeg(s.A.X, s.A.Y, s.B.X, s.B.Y)
		}
		ws[i] = newWire(n.Net, n.Found, int64(n.Length), segs)
	}
	return sortWires(ws)
}

// fingerprint hashes the canonical wire list.
func (ws wireSet) fingerprint() string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, w := range ws {
		h.Write([]byte(w.Net))
		h.Write([]byte{0})
		found := int64(0)
		if w.Found {
			found = 1
		}
		put(found)
		put(int64(len(w.Segs)))
		for _, s := range w.Segs {
			for _, v := range s {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (ws wireSet) length() int64 {
	var t int64
	for _, w := range ws {
		t += w.Length
	}
	return t
}

// checkRouted reports the nets that are not fully routed.
func checkRouted(ws wireSet) (unrouted int, err error) {
	for _, w := range ws {
		if !w.Found {
			unrouted++
			if err == nil {
				err = fmt.Errorf("net %s is not routed", w.Net)
			}
		}
	}
	return unrouted, err
}

// checkInteriors verifies that no segment enters the interior of any cell,
// scanning every cell for every segment. Wires may run along a cell edge.
func checkInteriors(l *layout.Layout, ws wireSet) error {
	for _, w := range ws {
		for _, s := range w.Segs {
			for ci := range l.Cells {
				for _, r := range l.Cells[ci].ObstacleRects() {
					if segEntersInterior(s, r) {
						return fmt.Errorf("net %s segment %v enters cell %s %v", w.Net, s, l.Cells[ci].Name, r)
					}
				}
			}
		}
	}
	return nil
}

func segEntersInterior(s seg, r geom.Rect) bool {
	if s[1] == s[3] { // horizontal
		return s[1] > r.MinY && s[1] < r.MaxY && max(s[0], r.MinX) < min(s[2], r.MaxX)
	}
	return s[0] > r.MinX && s[0] < r.MaxX && max(s[1], r.MinY) < min(s[3], r.MaxY)
}

// touches reports whether two closed axis-parallel segments share a point.
func touches(a, b seg) bool {
	return max(a[0], b[0]) <= min(a[2], b[2]) && max(a[1], b[1]) <= min(a[3], b[3])
}

func onSeg(p geom.Point, s seg) bool { return touches(seg{p.X, p.Y, p.X, p.Y}, s) }

// checkConnected verifies that every net's segments join all of its
// terminals into one connected piece: a terminal is attached when any of its
// pins lies on a segment of the piece (or coincides with an attached pin).
func checkConnected(l *layout.Layout, ws wireSet) error {
	byName := make(map[string]*wire, len(ws))
	for i := range ws {
		byName[ws[i].Net] = &ws[i]
	}
	for ni := range l.Nets {
		n := &l.Nets[ni]
		w := byName[n.Name]
		if w == nil {
			return fmt.Errorf("net %s has no installed wiring", n.Name)
		}
		if err := netConnected(n, w.Segs); err != nil {
			return fmt.Errorf("net %s: %w", n.Name, err)
		}
	}
	if len(ws) != len(l.Nets) {
		return fmt.Errorf("%d nets installed, layout has %d", len(ws), len(l.Nets))
	}
	return nil
}

func netConnected(n *layout.Net, segs []seg) error {
	// Nodes 0..len(segs)-1 are segments, then one node per terminal.
	nt := len(n.Terminals)
	parent := make([]int, len(segs)+nt)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if touches(segs[i], segs[j]) {
				union(i, j)
			}
		}
	}
	for ti, t := range n.Terminals {
		for _, p := range t.Pins {
			for si, s := range segs {
				if onSeg(p.Pos, s) {
					union(len(segs)+ti, si)
				}
			}
			for tj := 0; tj < ti; tj++ {
				for _, q := range n.Terminals[tj].Pins {
					if q.Pos == p.Pos {
						union(len(segs)+ti, len(segs)+tj)
					}
				}
			}
		}
	}
	root := find(len(segs))
	for ti := 1; ti < nt; ti++ {
		if find(len(segs)+ti) != root {
			return fmt.Errorf("terminal %s is not connected to terminal %s", n.Terminals[ti].Name, n.Terminals[0].Name)
		}
	}
	return nil
}

// naiveOverflow counts, for every passage, the nets with a segment touching
// its cross-section, and sums usage above capacity.
func naiveOverflow(passages []congest.Passage, ws wireSet) int {
	type box struct{ minX, minY, maxX, maxY int64 }
	boxes := make([]box, len(ws))
	for i, w := range ws {
		b := box{1 << 62, 1 << 62, -1 << 62, -1 << 62}
		for _, s := range w.Segs {
			b.minX, b.minY = min(b.minX, s[0]), min(b.minY, s[1])
			b.maxX, b.maxY = max(b.maxX, s[2]), max(b.maxY, s[3])
		}
		boxes[i] = b
	}
	total := 0
	for _, p := range passages {
		cs := p.CrossSection()
		x := canonSeg(cs.A.X, cs.A.Y, cs.B.X, cs.B.Y)
		usage := 0
		for i, w := range ws {
			b := boxes[i]
			if b.minX > x[2] || b.maxX < x[0] || b.minY > x[3] || b.maxY < x[1] {
				continue
			}
			for _, s := range w.Segs {
				if touches(s, x) {
					usage++
					break
				}
			}
		}
		if over := usage - p.Capacity; over > 0 {
			total += over
		}
	}
	return total
}
