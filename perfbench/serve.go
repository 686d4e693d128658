package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	genroute "repro"
	"repro/internal/serve"
)

// server is an in-process groutd (serve.Server on a loopback listener) with
// a snapshot directory, so every session it prepares is snapshotted and
// every ECO it commits is journaled and fsynced.
type server struct {
	dir    string
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(dir string, workers int) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		SnapshotDir: dir,
		Workers:     workers,
		ReadyzGrace: time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		dir:  dir,
		base: "http://" + ln.Addr().String(),
		// One load process with at most nproc connections.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits until Serve has returned.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// call sends one request and decodes a 2xx JSON reply into out. It returns
// the HTTP status and the client-observed latency, from sending the request
// to reading the whole reply.
func (s *server) call(method, path string, body []byte, out any) (int, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, lat, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, lat, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, lat, nil
}

type sessionReply struct {
	Hash           string  `json:"hash"`
	Warm           bool    `json:"warm"`
	PrepareMS      float64 `json:"prepare_ms"`
	JournalRecords int     `json:"journal_records"`
	JournalBytes   int64   `json:"journal_bytes"`
}

type wiresReply struct {
	Overflow int `json:"overflow"`
	Wires    []struct {
		Net      string     `json:"net"`
		Found    bool       `json:"found"`
		Length   int64      `json:"length"`
		Segments [][4]int64 `json:"segments"`
	} `json:"wires"`
}

func (w *wiresReply) wireSet() wireSet {
	ws := make(wireSet, len(w.Wires))
	for i, nw := range w.Wires {
		segs := make([]seg, len(nw.Segments))
		for k, s := range nw.Segments {
			segs[k] = canonSeg(s[0], s[1], s[2], s[3])
		}
		ws[i] = newWire(nw.Net, nw.Found, nw.Length, segs)
	}
	return sortWires(ws)
}

// open POSTs a layout, which prepares a session (or warm-starts it from a
// snapshot in the server's directory).
func (s *server) open(layoutJSON []byte, pitch int64) (sessionReply, time.Duration, error) {
	var sr sessionReply
	_, lat, err := s.call("POST", fmt.Sprintf("/v1/sessions?pitch=%d", pitch), layoutJSON, &sr)
	return sr, lat, err
}

func (s *server) negotiate(hash string) (time.Duration, error) {
	var nr struct {
		Converged bool `json:"converged"`
		Partial   bool `json:"partial"`
	}
	_, lat, err := s.call("POST", "/v1/sessions/"+hash+"/negotiate", []byte("{}"), &nr)
	if err == nil && nr.Partial {
		err = fmt.Errorf("negotiation of session %s returned a partial result", hash)
	}
	return lat, err
}

func (s *server) session(hash string) (sessionReply, error) {
	var list []sessionReply
	if _, _, err := s.call("GET", "/v1/sessions", nil, &list); err != nil {
		return sessionReply{}, err
	}
	for _, sr := range list {
		if sr.Hash == hash {
			return sr, nil
		}
	}
	return sessionReply{}, fmt.Errorf("session %s is not resident", hash)
}

func (s *server) journalPath(hash string) string { return filepath.Join(s.dir, hash+".jrnl") }

// loopStats is what one closed-loop run of the two clients observed.
type loopStats struct {
	ecoLat, ecoSrv     []float64 // client latency and server elapsed_ms of /eco
	ecoMove            []bool    // whether the write moved a cell
	routeLat, routeSrv []float64 // the same for /route
	acked              [][]ecoOp // the writes the server acknowledged, in order
	attempted, failed  int
	shed               int // 429 replies
	wall               time.Duration
	// Journal growth seen by polling the session after every write (only
	// when the loop is traced).
	journalBytes []float64
	compactions  int
}

// runLoop is the closed loop of groutd's editing traffic: one writer sends
// the script's /eco requests one after another, and one reader sends /route
// requests for the sampled nets until the writer is done. Each client sends
// its next request only after the previous reply, so a slower server
// receives less load.
func runLoop(s *server, hash string, script [][]ecoOp, reads []string, tr *tracer, parent int) *loopStats {
	bodies := make([][]byte, len(script))
	for k, ops := range script {
		b, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			panic(err) // ecoOp always marshals
		}
		bodies[k] = b
	}
	routeBodies := make([][]byte, len(reads))
	for k, n := range reads {
		routeBodies[k], _ = json.Marshal(map[string]string{"net": n}) // a string map always marshals
	}

	var w, r loopStats
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		lastRecords, lastBytes := -1, int64(0)
		for k, body := range bodies {
			var er struct {
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			t0 := time.Now()
			status, lat, err := s.call("POST", "/v1/sessions/"+hash+"/eco", body, &er)
			w.attempted++
			if status == http.StatusTooManyRequests {
				w.shed++
			}
			if err != nil {
				w.failed++
				fmt.Fprintf(os.Stderr, "perfbench: eco write %d: %v\n", k, err)
				continue
			}
			w.ecoLat = append(w.ecoLat, ms(lat))
			w.ecoSrv = append(w.ecoSrv, er.ElapsedMS)
			w.ecoMove = append(w.ecoMove, script[k][0].Op == "move_cell")
			w.acked = append(w.acked, script[k])
			if tr != nil {
				end := t0.Add(lat)
				id := tr.add("serve.eco", parent, t0, end)
				tr.add("genroute.commit", id, end.Add(-time.Duration(er.ElapsedMS*float64(time.Millisecond))), end)
				if sr, err := s.session(hash); err == nil {
					if lastRecords >= 0 && sr.JournalRecords < lastRecords {
						w.compactions++
					} else if lastRecords >= 0 && sr.JournalRecords == lastRecords+1 {
						w.journalBytes = append(w.journalBytes, float64(sr.JournalBytes-lastBytes))
					}
					lastRecords, lastBytes = sr.JournalRecords, sr.JournalBytes
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; !writerDone.Load(); k++ {
			var rr struct {
				Found     bool    `json:"found"`
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			t0 := time.Now()
			status, lat, err := s.call("POST", "/v1/sessions/"+hash+"/route", routeBodies[k%len(routeBodies)], &rr)
			r.attempted++
			if status == http.StatusTooManyRequests {
				r.shed++
			}
			if err == nil && !rr.Found {
				err = fmt.Errorf("net %s was not routed", reads[k%len(reads)])
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: route read %d: %v\n", k, err)
				continue
			}
			r.routeLat = append(r.routeLat, ms(lat))
			r.routeSrv = append(r.routeSrv, rr.ElapsedMS)
			if tr != nil {
				end := t0.Add(lat)
				id := tr.add("serve.route", parent, t0, end)
				tr.add("genroute.route_net", id, end.Add(-time.Duration(rr.ElapsedMS*float64(time.Millisecond))), end)
			}
		}
	}()
	wg.Wait()
	w.wall = time.Since(start)
	w.routeLat, w.routeSrv = r.routeLat, r.routeSrv
	w.attempted += r.attempted
	w.failed += r.failed
	w.shed += r.shed
	return &w
}

// overheads returns the median of client latency minus server elapsed time.
func overheads(client, srv []float64) float64 {
	d := make([]float64, len(client))
	for i := range client {
		d[i] = client[i] - srv[i]
	}
	return median(d)
}

// finalWires fetches the installed wiring of a session.
func (s *server) finalWires(hash string) (*wiresReply, time.Duration, error) {
	var wr wiresReply
	_, lat, err := s.call("GET", "/v1/sessions/"+hash+"/wires", nil, &wr)
	return &wr, lat, err
}

// replayWires applies the acknowledged writes, in order, to a plain Engine
// holding the session's starting state, and returns the installed wiring.
func replayWires(ctx context.Context, base func() (*genroute.Engine, error), acked [][]ecoOp) (wireSet, error) {
	e, err := base()
	if err != nil {
		return nil, err
	}
	for k, ops := range acked {
		tx := e.Edit()
		if err := apply(tx, ops); err != nil {
			return nil, fmt.Errorf("replaying write %d: %w", k, err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			return nil, fmt.Errorf("replaying write %d: %w", k, err)
		}
	}
	return wiresOf(e.Result().Nets), nil
}

// journalWires recovers a session from a copy of its ECO journal alone and
// returns the installed wiring. Recovery reattaches the journal it reads, so
// it works on a copy and leaves the server's file alone.
func journalWires(path, scratch string, opts []genroute.Option) (wireSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(scratch, b, 0o644); err != nil {
		return nil, err
	}
	e, err := genroute.LoadEngineJournal(scratch, opts...)
	if err != nil {
		return nil, err
	}
	defer e.CloseJournal()
	if e.Result() == nil {
		return nil, fmt.Errorf("journal %s recovers an unrouted session", path)
	}
	return wiresOf(e.Result().Nets), nil
}
