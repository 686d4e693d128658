// Package snapshot is the versioned, checksummed binary codec behind
// crash-safe sessions: it serializes a prepared (and possibly routed)
// engine session and the negotiator's restartable checkpoints.
//
// A snapshot stream is a single frame:
//
//	magic "GRSNAP" | version u16 | kind u8 | payload length u64 | payload | crc32(payload)
//
// (little-endian fixed-width header fields; varint-coded payload). The
// prefix, the CRC-32 trailer and the payload codec are internal/wire's,
// shared with internal/journal; the fixed u64 length is this format's. The
// payload does not carry the obstacle index, the interval trees or the
// memoized validate geometry: all of them are deterministic functions of
// the layout, and rebuilding them from spans is orders of magnitude
// cheaper than validating from scratch — the snapshot instead embeds a
// hash of the layout (LayoutHash), so the loader can prove it is rebuilding
// over byte-identical geometry and skip validation entirely. Decoding fails
// closed with typed errors (ErrFormat, ErrVersion, ErrChecksum, ErrCorrupt,
// ErrLayout) and never panics, whatever the input bytes; every count is
// bounds-checked against the remaining payload before allocation.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/wire"
)

// Version is the codec version this build reads and writes.
const Version = 1

const (
	magic       = "GRSNAP"
	headerLen   = len(magic) + 2 + 1 + 8
	maxPayload  = wire.MaxPayload
	kindSession = 1
	kindCkpt    = 2
)

// format is the frame prefix of every snapshot stream.
var format = wire.Format{Magic: magic, Version: Version}

// Typed decode errors. Every failure wraps exactly one of these, so callers
// can distinguish "wrong file" from "stale format" from "bit rot". The
// codec-level ones are internal/wire's, shared with the journal.
var (
	ErrFormat   = wire.ErrFormat
	ErrVersion  = wire.ErrVersion
	ErrChecksum = wire.ErrChecksum
	ErrCorrupt  = wire.ErrCorrupt
	// ErrKind marks a session snapshot read as a checkpoint or vice versa.
	ErrKind = errors.New("snapshot: wrong snapshot kind")
	// ErrLayout marks a snapshot whose embedded layout hash does not match
	// the layout it is being restored onto (layout drift).
	ErrLayout = errors.New("snapshot: layout does not match")
)

// Session is the serializable state of a prepared engine session: the
// layout identity, the congestion pitch and passage tables, and — when the
// session has routed — the per-net routes and overflow history. The
// obstacle index and congestion map are rebuilt at load time.
type Session struct {
	// LayoutHash identifies the exact layout geometry the session was
	// prepared over (see LayoutHash).
	LayoutHash uint64
	// Pitch is the wire pitch the passage capacities were extracted at.
	Pitch geom.Coord
	// Passages is the extracted corridor list, in extraction order.
	Passages []congest.Passage
	// Routed reports whether Nets/History carry a routing state.
	Routed bool
	// Nets is the per-net routing state, in layout net order. Net names
	// and Segments are not serialized: names come from the layout at load,
	// segments are rebuilt from Paths (the router derives one from the
	// other by construction).
	Nets []router.NetRoute
	// History is the per-passage overflow history (len == len(Passages)).
	History []int
}

// CheckpointFile wraps a negotiation checkpoint with the identity of the
// session it belongs to, so a resume onto the wrong layout or pitch fails
// closed.
type CheckpointFile struct {
	LayoutHash uint64
	Pitch      geom.Coord
	CP         congest.Checkpoint
}

// EncodeSession writes a session snapshot frame.
func EncodeSession(w io.Writer, s *Session) error {
	var e wire.Enc
	e.U64(s.LayoutHash)
	e.Vi(int64(s.Pitch))
	e.Uv(uint64(len(s.Passages)))
	for i := range s.Passages {
		p := &s.Passages[i]
		e.Vi(int64(p.Between[0]))
		e.Vi(int64(p.Between[1]))
		e.Rect(p.Rect)
		e.Bool(p.Vertical)
		e.Vi(int64(p.Width))
		e.Vi(int64(p.Capacity))
	}
	e.Bool(s.Routed)
	if s.Routed {
		encodeNets(&e, s.Nets)
		e.Uv(uint64(len(s.History)))
		for _, h := range s.History {
			e.Vi(int64(h))
		}
	}
	return writeFrame(w, kindSession, e.Bytes())
}

// DecodeSession reads a session snapshot frame. The returned NetRoutes have
// empty Net names (the loader fills them from its layout).
func DecodeSession(r io.Reader) (*Session, error) {
	payload, err := readFrame(r, kindSession)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(payload)
	s := &Session{LayoutHash: d.U64(), Pitch: geom.Coord(d.Vi())}
	n := d.Count(9) // a passage is at least 9 payload bytes
	s.Passages = make([]congest.Passage, 0, n)
	for i := 0; i < n && d.OK(); i++ {
		var p congest.Passage
		p.Between[0] = int(d.Vi())
		p.Between[1] = int(d.Vi())
		p.Rect = d.Rect()
		p.Vertical = d.Bool()
		p.Width = geom.Coord(d.Vi())
		p.Capacity = int(d.Vi())
		if p.Capacity < 0 || p.Width < 0 {
			d.Corrupt("negative passage width or capacity")
		}
		s.Passages = append(s.Passages, p)
	}
	if s.Routed = d.Bool(); s.Routed {
		s.Nets = decodeNets(&d)
		hn := d.Count(1)
		if hn != len(s.Passages) {
			d.Corrupt("history length does not match passages")
		}
		s.History = make([]int, 0, hn)
		for i := 0; i < hn && d.OK(); i++ {
			h := int(d.Vi())
			if h < 0 {
				d.Corrupt("negative history")
			}
			s.History = append(s.History, h)
		}
	}
	if err := d.Finish("session"); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeCheckpoint writes a checkpoint frame.
func EncodeCheckpoint(w io.Writer, c *CheckpointFile) error {
	var e wire.Enc
	e.U64(c.LayoutHash)
	e.Vi(int64(c.Pitch))
	cp := &c.CP
	e.Uv(uint64(cp.PassesRecorded))
	e.Uv(uint64(cp.ReroutePass))
	e.Uv(uint64(len(cp.History)))
	for _, h := range cp.History {
		e.Vi(int64(h))
	}
	encodeNets(&e, cp.Nets)
	e.Bool(cp.InPass)
	if cp.InPass {
		e.Bool(cp.Changed)
		e.Uv(uint64(len(cp.Ripped)))
		for _, r := range cp.Ripped {
			e.Bool(r)
		}
		e.Uv(uint64(len(cp.Initial)))
		for _, ni := range cp.Initial {
			e.Uv(uint64(ni))
		}
		e.Uv(uint64(cp.InitialPos))
		e.Uv(uint64(len(cp.Rerouted)))
		for _, name := range cp.Rerouted {
			e.Str(name)
		}
	}
	return writeFrame(w, kindCkpt, e.Bytes())
}

// DecodeCheckpoint reads a checkpoint frame. The returned NetRoutes have
// empty Net names; structural consistency against a session (net counts,
// rip indices) is the resumer's job — the codec only guarantees the blob is
// internally well-formed.
func DecodeCheckpoint(r io.Reader) (*CheckpointFile, error) {
	payload, err := readFrame(r, kindCkpt)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(payload)
	c := &CheckpointFile{LayoutHash: d.U64(), Pitch: geom.Coord(d.Vi())}
	cp := &c.CP
	cp.PassesRecorded = int(d.Uv())
	cp.ReroutePass = int(d.Uv())
	hn := d.Count(1)
	cp.History = make([]int, 0, hn)
	for i := 0; i < hn && d.OK(); i++ {
		h := int(d.Vi())
		if h < 0 {
			d.Corrupt("negative history")
		}
		cp.History = append(cp.History, h)
	}
	cp.Nets = decodeNets(&d)
	if cp.InPass = d.Bool(); cp.InPass {
		cp.Changed = d.Bool()
		rn := d.Count(1)
		if rn != len(cp.Nets) {
			d.Corrupt("rip flags do not match nets")
		}
		cp.Ripped = make([]bool, 0, rn)
		for i := 0; i < rn && d.OK(); i++ {
			cp.Ripped = append(cp.Ripped, d.Bool())
		}
		in := d.Count(1)
		cp.Initial = make([]int, 0, in)
		for i := 0; i < in && d.OK(); i++ {
			ni := int(d.Uv())
			if ni < 0 || ni >= len(cp.Nets) {
				d.Corrupt("rip index out of range")
			}
			cp.Initial = append(cp.Initial, ni)
		}
		cp.InitialPos = int(d.Uv())
		if cp.InitialPos < 0 || cp.InitialPos > len(cp.Initial) {
			d.Corrupt("rip position out of range")
		}
		sn := d.Count(1)
		cp.Rerouted = make([]string, 0, sn)
		for i := 0; i < sn && d.OK(); i++ {
			cp.Rerouted = append(cp.Rerouted, d.Str())
		}
	}
	if cp.PassesRecorded < 0 || cp.ReroutePass < 0 {
		d.Corrupt("negative pass counters")
	}
	if err := d.Finish("checkpoint"); err != nil {
		return nil, err
	}
	return c, nil
}

// encodeNets writes a per-net routing state. Only the identity-bearing
// fields go to disk: Found, FailedTerminal, Length, Stats and Paths.
// Segments are derived from Paths at decode (RouteNet constructs them from
// consecutive path points), and Net names come from the layout.
func encodeNets(e *wire.Enc, nets []router.NetRoute) {
	e.Uv(uint64(len(nets)))
	for i := range nets {
		nr := &nets[i]
		e.Bool(nr.Found)
		e.Str(nr.FailedTerminal)
		e.Vi(int64(nr.Length))
		e.Uv(uint64(nr.Stats.Expanded))
		e.Uv(uint64(nr.Stats.Generated))
		e.Uv(uint64(nr.Stats.Reopened))
		e.Uv(uint64(nr.Stats.MaxOpen))
		e.Uv(uint64(len(nr.Paths)))
		for _, path := range nr.Paths {
			e.Uv(uint64(len(path)))
			for _, p := range path {
				e.Vi(int64(p.X))
				e.Vi(int64(p.Y))
			}
		}
	}
}

// decodeNets reads a per-net routing state, rebuilding Segments from Paths.
// Consecutive path points must be axis-aligned — a checksum-valid but
// hand-crafted diagonal would otherwise panic the geometry layer.
func decodeNets(d *wire.Dec) []router.NetRoute {
	n := d.Count(2)
	nets := make([]router.NetRoute, 0, n)
	for i := 0; i < n && d.OK(); i++ {
		var nr router.NetRoute
		nr.Found = d.Bool()
		nr.FailedTerminal = d.Str()
		nr.Length = geom.Coord(d.Vi())
		nr.Stats = search.Stats{
			Expanded:  int(d.Uv()),
			Generated: int(d.Uv()),
			Reopened:  int(d.Uv()),
			MaxOpen:   int(d.Uv()),
		}
		np := d.Count(1)
		if np > 0 {
			nr.Paths = make([][]geom.Point, 0, np)
		}
		for j := 0; j < np && d.OK(); j++ {
			pn := d.Count(2) // a point is at least 2 payload bytes
			path := make([]geom.Point, 0, pn)
			for k := 0; k < pn && d.OK(); k++ {
				path = append(path, geom.Pt(d.Vi(), d.Vi()))
			}
			for k := 1; k < len(path); k++ {
				if path[k-1].X != path[k].X && path[k-1].Y != path[k].Y {
					d.Corrupt("diagonal path step")
					break
				}
				nr.Segments = append(nr.Segments, geom.S(path[k-1], path[k]))
			}
			nr.Paths = append(nr.Paths, path)
		}
		nets = append(nets, nr)
	}
	return nets
}

// LayoutHash fingerprints the routing-relevant layout geometry (bounds,
// cells with outlines, nets with terminals and pins) with FNV-1a over an
// unambiguous length-prefixed encoding. Two layouts hash equal iff a
// prepared session over one is valid over the other, which is what lets
// LoadEngine skip re-validation: the hash is taken over the validated
// layout at save time, so a matching load target is byte-identical to
// geometry that already passed Validate. Call on a layout whose bare
// polygon boxes are filled (Validate or layout.NormalizeBoxes does).
func LayoutHash(l *layout.Layout) uint64 {
	h := &fnv{sum: 14695981039346656037}
	h.str("genroute-layout-v1")
	h.str(l.Name)
	h.rect(l.Bounds)
	h.i(int64(len(l.Cells)))
	for i := range l.Cells {
		c := &l.Cells[i]
		h.str(c.Name)
		h.rect(c.Box)
		h.i(int64(len(c.Poly)))
		for _, p := range c.Poly {
			h.i(int64(p.X))
			h.i(int64(p.Y))
		}
	}
	h.i(int64(len(l.Nets)))
	for i := range l.Nets {
		n := &l.Nets[i]
		h.str(n.Name)
		h.i(int64(len(n.Terminals)))
		for t := range n.Terminals {
			term := &n.Terminals[t]
			h.str(term.Name)
			h.i(int64(len(term.Pins)))
			for _, p := range term.Pins {
				h.str(p.Name)
				h.i(int64(p.Pos.X))
				h.i(int64(p.Pos.Y))
				h.i(int64(p.Cell))
			}
		}
	}
	return h.sum
}

// fnv is FNV-1a 64 with length-prefixed helpers.
type fnv struct{ sum uint64 }

func (h *fnv) bytes(b []byte) {
	for _, c := range b {
		h.sum ^= uint64(c)
		h.sum *= 1099511628211
	}
}

func (h *fnv) i(v int64) {
	var b [binary.MaxVarintLen64]byte
	h.bytes(b[:binary.PutVarint(b[:], v)])
}

func (h *fnv) str(s string) {
	h.i(int64(len(s)))
	h.bytes([]byte(s))
}

func (h *fnv) rect(r geom.Rect) {
	h.i(int64(r.MinX))
	h.i(int64(r.MinY))
	h.i(int64(r.MaxX))
	h.i(int64(r.MaxY))
}

// writeFrame frames a payload: header, payload, CRC.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	hdr := format.AppendPrefix(make([]byte, 0, headerLen), kind)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(wire.AppendSum(nil, payload))
	return err
}

// readFrame reads and verifies one frame, returning the payload. The
// payload is read through a growing buffer so a forged huge length cannot
// force a huge allocation before the (short) input runs out.
func readFrame(r io.Reader, wantKind byte) ([]byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrFormat)
	}
	kind, err := format.CheckPrefix(hdr)
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: stream kind %d, want %d", ErrKind, kind, wantKind)
	}
	n := binary.LittleEndian.Uint64(hdr[len(magic)+3:])
	if err := wire.CheckLen(n); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, io.LimitReader(r, int64(n)+wire.SumLen)); err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	return wire.CheckPayload(buf.Bytes(), n)
}
