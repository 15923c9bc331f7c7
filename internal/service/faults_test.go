package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"ceal/internal/collector"
	"ceal/internal/dispatch"
	"ceal/internal/histdb"
	"ceal/internal/tuner"
	"ceal/internal/worker"
)

// The fault harness runs the whole plane in one process: two or three
// Manager replicas on one store directory, each driven only through its own
// HTTP handler, and two worker engines behind a transport that injects
// network faults. A schedule is a function of one seed: which spec runs,
// which append kills replica a and how much of that frame lands, whether the
// run is cancelled mid-flight, and which requests the network breaks. After
// every schedule the run must be indistinguishable from the fault-free run
// of its spec.

// planeAlgorithms are the algorithms a schedule draws its spec from.
var planeAlgorithms = []string{"rs", "al", "geist", "alph", "ceal"}

// planeSeeds is FuzzPlaneSchedule's seed corpus; a seed's layout is
// schedule's. Every (algorithm, run kind) pair runs with replica a killed at
// every frame of its fault-free run (every third frame of a session other
// than CEAL's), and is cancelled at its first, a middle and its last request
// and resumed: without a kill, with one at its third frame, and with one
// past its fault-free frame count. A random-sampling tune is cancelled at
// every kill point instead, and a CEAL session at every other, the DELETE
// moving along the run with the kill. A random-sampling tune is killed at
// every frame with each of the four crash images. The store is compacted
// mid-run, at a run's end and mid-session, and a restarts while a sibling
// runs the run a resumed.
func planeSeeds(tb testing.TB) []uint64 {
	var seeds []uint64
	add := func(alg int, crash, hold, flags uint64) {
		n := uint64(len(seeds))
		seeds = append(seeds, crash|flags|n%4<<8|uint64(alg)<<10|hold<<13|n<<19)
	}
	for alg := range planeAlgorithms {
		for _, kind := range []uint64{0, contBit} {
			ff := faultFreeRun(tb, schedule{alg: alg, cont: kind != 0}.spec())
			if ff.requests > 64 || ff.frames+2 > 63 {
				// A seed holds the hold in six bits and the crash point in six.
				tb.Fatalf("%s: %d requests and %d frames overflow a seed", schedule{alg: alg, cont: kind != 0}.spec().Key(), ff.requests, ff.frames)
			}
			frames, last := uint64(ff.frames), uint64(ff.requests-1)
			step := uint64(1)
			if kind != 0 && planeAlgorithms[alg] != "ceal" {
				step = 3
			}
			for crash := uint64(0); crash <= frames; crash += step {
				add(alg, crash, crash*last/frames, kind)
			}
			if alg == 0 && kind == 0 || planeAlgorithms[alg] == "ceal" && kind != 0 {
				for crash := uint64(0); crash <= frames+2; crash += 1 + kind/contBit {
					add(alg, crash, crash*last/(frames+2), kind|cancelBit)
				}
				continue
			}
			for i, hold := range []uint64{0, last / 2, last} {
				add(alg, []uint64{0, 3, frames + 2}[i], hold, kind|cancelBit)
			}
		}
	}
	rsFrames := uint64(faultFreeRun(tb, schedule{}.spec()).frames)
	for crash := uint64(1); crash <= rsFrames; crash++ {
		for range 4 {
			add(0, crash, 0, 0)
		}
	}
	add(0, 3, 0, compactBit)
	add(1, 4, 1, compactBit)
	add(4, 5, 2, contBit|compactBit)
	add(2, 9, 8, contBit|compactBit)
	add(3, 2, 0, rejoinBit)
	add(4, 4, 3, contBit|rejoinBit)
	return seeds
}

// FuzzPlaneSchedule runs one fault schedule per seed. The corpus runs under
// plain go test; -fuzz explores further seeds.
func FuzzPlaneSchedule(f *testing.F) {
	for _, seed := range planeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := newPlane(t, newSchedule(t, seed))
		defer p.shutdown()
		p.run()
	})
}

// diesAdmittingResume is a CEAL session's schedule: DELETEd at its 16th
// worker request, resumed on replica a, which dies at its 7th frame,
// admitting the resume, with nothing of that frame landing.
const diesAdmittingResume = 0x1f0c7

// TestPlaneDiesAdmittingResume replays the schedule in which replica a dies
// admitting a resume, and checks it still does: a seed's layout lays crash
// points over frame counts, which move when the run's frames do.
func TestPlaneDiesAdmittingResume(t *testing.T) {
	p := newPlane(t, newSchedule(t, diesAdmittingResume))
	defer p.shutdown()
	p.run()
	if !p.diedAdmitting {
		t.Fatalf("seed %#x no longer kills replica a admitting a resume", uint64(diesAdmittingResume))
	}
}

// schedule is everything one seed decides. Its low thirteen bits choose the
// crash point, the run kind, whether to cancel, the crash image and the
// algorithm; the next six choose the request the network parks; the top two
// whether replica a compacts or rejoins; the rest seed every other choice.
type schedule struct {
	seed    uint64
	crashAt int  // replica a dies at its crashAt-th append; 0 never (bits 0–5)
	cont    bool // a continuous session rather than a tune (contBit)
	cancel  bool // DELETE the run mid-flight, then resume it (cancelBit)
	// How much of the crashing frame lands (bits 8–9): nothing, the whole
	// frame, a torn prefix of a seeded length, or the whole frame and then a
	// compaction that dies before its rename.
	image int
	alg   int // index into planeAlgorithms (bits 10–12, mod its length)
	// Replica a compacts the store at its crashAt-th frame instead of dying
	// there (compactBit). Never with cancel: a sibling running the resumed
	// run would be appending, and Compact wants a quiescent store.
	compact bool
	// Once a sibling runs the resumed run, replica a restarts again, and must
	// leave that run alone (rejoinBit).
	rejoin bool

	replicas int // replicas on the store directory: 2 or 3
	// The network parks the hold-th worker request, counted over the whole
	// run: 1 + bits 13–18 mod the fault-free run's requests; 0 never.
	hold     int
	cut      uint64 // a torn frame keeps 1 + cut%(len-1) bytes
	picks    uint64 // which replica resumes, and which is asked again
	faults   uint64 // keys each first sighting's fault draw
	rate     uint64 // of four first sightings, how many fault (0–2)
	down     int    // the worker down for a quarter of the bodies; -1 none
	downFrom uint64 // where that quarter of body-hash space begins
}

const (
	contBit    = 1 << 6
	cancelBit  = 1 << 7
	compactBit = 1 << 62
	rejoinBit  = 1 << 63
)

const (
	imageLost = iota
	imageWhole
	imageTorn
	imageRenameLost
)

func newSchedule(tb testing.TB, seed uint64) schedule {
	s := schedule{
		seed:    seed,
		crashAt: int(seed & 63),
		cont:    seed&contBit != 0,
		cancel:  seed&cancelBit != 0,
		image:   int(seed >> 8 & 3),
		alg:     int(seed>>10&7) % len(planeAlgorithms),
		compact: seed&compactBit != 0 && seed&cancelBit == 0,
		rejoin:  seed&rejoinBit != 0,
	}
	s.hold = 1 + int(seed>>13&63)%faultFreeRun(tb, s.spec()).requests
	r := rand.New(rand.NewPCG(seed>>19, 0xcea1))
	s.replicas = 2 + r.IntN(2)
	s.cut, s.picks, s.faults = r.Uint64(), r.Uint64(), r.Uint64()
	s.rate = r.Uint64N(3)
	s.down = r.IntN(3) - 1
	s.downFrom = r.Uint64()
	return s
}

// spec is the schedule's job: its algorithm on a small LV pool, tuned once
// or as a session under a step drift.
func (s schedule) spec() JobSpec {
	spec := JobSpec{Benchmark: "LV", Algorithm: planeAlgorithms[s.alg], Objective: "comp", Budget: 8, Pool: 30, Seed: 1}
	if s.cont {
		spec.Budget, spec.Pool = 12, 60
		spec.Mode, spec.Drift, spec.Probes = histdb.ModeContinuous, "step", 60
	}
	return spec
}

// fault is what the network does to one request.
type fault int

const (
	deliver     fault = iota
	dropBefore        // lost on the way: the worker never sees it
	dropAfter         // the worker measures; the reply is lost
	duplicate         // delivered twice; the second reply answers
	serverError       // a 503 from in front of the worker
	cutBody           // the reply breaks off mid-body
	reorder           // the reply lists its results in reverse
	workerDown        // connection refused
)

// fate decides one request's fault from the worker, a hash of the body and
// how many times that worker has seen the body before: never from arrival
// order, so a schedule replays however the shards interleave. One worker is
// down for a quarter of the bodies until it has seen a body twice; any other
// fault strikes only a first sighting. A shard's four attempts alternate
// between the two workers, so at most three of them fail.
func (s schedule) fate(w int, h uint64, seen int) fault {
	if w == s.down && h-s.downFrom < 1<<62 && seen < 2 {
		return workerDown
	}
	x := mix(s.faults ^ mix(h^uint64(w)))
	if seen > 0 || x%4 >= s.rate {
		return deliver
	}
	return dropBefore + fault(x>>2%6)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// faultNet is the replicas' http.RoundTripper: it hands each request to
// worker engine w0 or w1 directly, as its schedule's faults allow.
type faultNet struct {
	s       schedule
	workers [2]http.Handler

	mu     sync.Mutex
	seen   map[[2]uint64]int // (worker, body hash) → sightings
	reqs   int
	failed int // failed requests since the run's latest admission
	// Requests no DELETE could stop, and requests of a batch after the one
	// parked when the run was deleted: each fails the schedule.
	escaped []string
	batches atomic.Int64 // batches dispatched; a request carries its own's ordinal
	parked  int64        // the parked request's batch
	deleted bool         // the run is deleted and has not ended yet

	held     chan struct{} // closed when the hold-th request parks
	release  chan struct{} // closed to let it, and any later one, through
	released bool
}

// batchKey is the context key of a request's batch ordinal.
type batchKey struct{}

// numbered is a worker dispatcher that numbers its batches, so the network
// can tell which batch a request belongs to.
type numbered struct {
	*dispatch.Remote
	net *faultNet
}

func (d numbered) Dispatch(ctx context.Context, batch []dispatch.Item) ([]dispatch.Measurement, error) {
	return d.Remote.Dispatch(context.WithValue(ctx, batchKey{}, d.net.batches.Add(1)), batch)
}

func (n *faultNet) letGo() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.released {
		close(n.release)
		n.released = true
	}
}

// rehold parks the next request, returning the channel closed when it does.
// Callers make sure no request is parked.
func (n *faultNet) rehold() chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.s.hold = n.reqs + 1
	n.held, n.release, n.released = make(chan struct{}), make(chan struct{}), false
	return n.held
}

// admitting zeroes the failure count and ends a deletion: the run is about
// to start again, and no earlier execution of it has a request in flight.
func (n *faultNet) admitting() {
	n.mu.Lock()
	n.failed, n.deleted = 0, false
	n.mu.Unlock()
}

// deleting marks the run deleted while a request of its parked batch waits.
func (n *faultNet) deleting() {
	n.mu.Lock()
	n.deleted = true
	n.mu.Unlock()
}

// escapes returns what has escaped cancellation so far.
func (n *faultNet) escapes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.escaped)
}

func (n *faultNet) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	hash := fnv.New64a()
	hash.Write(body)
	h, w := hash.Sum64(), int(req.URL.Host[1]-'0')
	batch, _ := req.Context().Value(batchKey{}).(int64)
	n.mu.Lock()
	n.reqs++
	if req.Context().Done() == nil {
		// Nothing could stop it, so it must not run, let alone park.
		err := fmt.Errorf("request %d (batch %d) has no cancellable context", n.reqs, batch)
		n.escaped = append(n.escaped, err.Error())
		n.mu.Unlock()
		return nil, err
	}
	if n.deleted && batch != n.parked {
		n.escaped = append(n.escaped, fmt.Sprintf("request %d is of batch %d, after the DELETE at parked batch %d", n.reqs, batch, n.parked))
	}
	key := [2]uint64{uint64(w), h}
	f := n.s.fate(w, h, n.seen[key])
	n.seen[key]++
	if f != deliver && f != duplicate && f != reorder {
		n.failed++
	}
	park := n.reqs == n.s.hold
	if park {
		n.parked = batch
	}
	held, release := n.held, n.release
	n.mu.Unlock()
	if park {
		close(held)
		select {
		case <-release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}

	switch f {
	case dropBefore:
		return nil, fmt.Errorf("%s: request lost", req.URL.Host)
	case workerDown:
		return nil, fmt.Errorf("%s: connection refused", req.URL.Host)
	case serverError:
		rr := httptest.NewRecorder()
		httpError(rr, http.StatusServiceUnavailable, fmt.Errorf("%s unavailable", req.URL.Host))
		return rr.Result(), nil
	}
	serve := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		n.workers[w].ServeHTTP(rr, httptest.NewRequest(req.Method, req.URL.Path, bytes.NewReader(body)).WithContext(req.Context()))
		return rr
	}
	rr := serve()
	resp := rr.Result()
	switch f {
	case dropAfter:
		return nil, fmt.Errorf("%s: reply lost", req.URL.Host)
	case duplicate:
		resp = serve().Result()
	case cutBody:
		b := rr.Body.Bytes()
		resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(b[:mix(h)%uint64(len(b))]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	case reorder:
		var mr dispatch.MeasureResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &mr); err != nil {
			return nil, err
		}
		slices.Reverse(mr.Results)
		b, _ := json.Marshal(mr)
		resp.Body = io.NopCloser(bytes.NewReader(b))
	}
	return resp, nil
}

// crashStore is a replica's store that dies at its at-th frame of any
// kind, record or progress: that frame lands whole, torn or not at all, or
// whole with a compaction that dies before its rename, and every later
// write is dropped, as if the process had been killed during or between
// appends. Under compact it lives on instead: the frame lands and the
// store is compacted there, mid-run.
type crashStore struct {
	*histdb.FileStore
	dir     string
	at      int
	image   int
	cut     uint64
	compact bool

	mu      sync.Mutex
	frames  int
	crashed chan struct{}
	err     error // from landing the frame or compacting
}

func (c *crashStore) Save(rec *histdb.RunRecord) error {
	return c.write(func() error { return c.FileStore.Save(rec) })
}

func (c *crashStore) SaveProgress(pr *histdb.Progress) error {
	return c.write(func() error { return c.FileStore.SaveProgress(pr) })
}

func (c *crashStore) write(save func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames++
	switch {
	case c.at == 0 || c.frames < c.at:
		return save()
	case c.compact:
		err := save()
		if err == nil && c.frames == c.at {
			c.err = c.FileStore.Compact()
		}
		return err
	case c.frames > c.at:
		return nil // dead
	}
	defer close(c.crashed)
	before, err := segmentSizes(c.dir)
	if err != nil {
		c.err = err
		return nil
	}
	if err := save(); err != nil {
		return err
	}
	c.err = c.land(before)
	return nil
}

// land cuts the frame just appended — to the one segment that grew since
// before — down to what the crash image keeps of it.
func (c *crashStore) land(before map[string]int64) error {
	after, err := segmentSizes(c.dir)
	if err != nil {
		return err
	}
	for seg, size := range after {
		n := size - before[seg]
		if n == 0 {
			continue
		}
		switch c.image {
		case imageLost:
			n = 0
		case imageWhole:
		case imageRenameLost:
			return loseRename(c.dir)
		case imageTorn:
			n = 1 + int64(c.cut%uint64(n-1))
		}
		return os.Truncate(seg, before[seg]+n)
	}
	return fmt.Errorf("no segment grew with the crashing frame")
}

// segmentSizes maps each segment file in dir to its size.
func segmentSizes(dir string) (map[string]int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sizes := make(map[string]int64, len(segs))
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, err
		}
		sizes[seg] = fi.Size()
	}
	return sizes, nil
}

// loseRename leaves in dir what a compaction killed just before its rename
// leaves: the snapshot, fully written, under its temp name beside the
// segments it was to replace. The snapshot is made by compacting a copy.
func loseRename(dir string) error {
	sizes, err := segmentSizes(dir)
	if err != nil {
		return err
	}
	cp, err := os.MkdirTemp(filepath.Dir(dir), "compact-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	for seg := range sizes {
		data, err := os.ReadFile(seg)
		if err == nil {
			err = os.WriteFile(filepath.Join(cp, filepath.Base(seg)), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	st, err := histdb.OpenFileStore(cp)
	if err == nil {
		err = st.Compact()
	}
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	snaps, err := segmentSizes(cp)
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("compacted copy holds %d segments: %v", len(snaps), err)
	}
	for snap := range snaps {
		data, err := os.ReadFile(snap)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, filepath.Base(snap)+".tmp"), data, 0o644)
	}
	return nil
}

// replica is one Manager and its HTTP handler.
type replica struct {
	id    string
	m     *Manager
	srv   *Server
	store *crashStore
}

// do sends one request through the replica's handler.
func (r *replica) do(method, path string, body any) (int, []byte) {
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	rr := httptest.NewRecorder()
	r.srv.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
	return rr.Code, rr.Body.Bytes()
}

// follow returns a channel closed once run id is terminal on r: the events
// stream, followed, ends there.
func (r *replica) follow(id string) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.do(http.MethodGet, "/v1/runs/"+id+"/events", nil)
	}()
	return done
}

// view is what the harness reads out of a run record or a submit reply.
type view struct {
	ID         string          `json:"id"`
	State      histdb.RunState `json:"state"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Continuous json.RawMessage `json:"continuous"`
	Collector  collector.Stats `json:"collector_stats"`
	Deduped    bool            `json:"deduped"`
}

// faultFree is a spec's fault-free run: the record every schedule of the
// spec must end with, which is the in-process run's (local dispatch, a
// MemStore), and the store frames and worker requests the spec's run on a
// fault-free plane takes, over which schedules lay their crash points and
// holds. The plane's run must end with the in-process record.
type faultFree struct {
	view
	frames, requests int
}

// faultFrees holds each spec's fault-free run, by spec key.
var faultFrees sync.Map

func faultFreeRun(tb testing.TB, spec JobSpec) faultFree {
	tb.Helper()
	if ff, ok := faultFrees.Load(spec.Key()); ok {
		return ff.(faultFree)
	}
	alg := slices.Index(planeAlgorithms, spec.Algorithm)
	p := newPlane(tb, schedule{alg: alg, cont: spec.Mode == histdb.ModeContinuous, replicas: 1, down: -1})
	defer p.shutdown()
	id, done := p.submit(p.reps[0])
	<-done
	_, v := p.get(p.reps[0], id)
	p.noEscapes()
	want := p.inProcess()
	if v.State != histdb.StateDone {
		p.fatalf("fault-free %s run %s is %s (%s)", spec.Key(), id, v.State, v.Error)
	}
	if !bytes.Equal(v.Result, want.Result) || !bytes.Equal(v.Continuous, want.Continuous) ||
		v.Collector.Hits != want.Collector.Hits || v.Collector.Misses != want.Collector.Misses {
		p.fatalf("fault-free %s run on the workers differs from the in-process run:\n got %s %s %+v\nwant %s %s %+v",
			spec.Key(), v.Result, v.Continuous, v.Collector, want.Result, want.Continuous, want.Collector)
	}
	ff := faultFree{view: want}
	st := p.reps[0].store
	st.mu.Lock()
	ff.frames = st.frames
	st.mu.Unlock()
	p.net.mu.Lock()
	ff.requests = p.net.reqs
	p.net.mu.Unlock()
	faultFrees.Store(spec.Key(), ff)
	return ff
}

// inProcess is the schedule's spec run fault-free on one in-process replica
// over a MemStore.
func (p *plane) inProcess() view {
	p.t.Helper()
	m := NewManager(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	r := &replica{m: m, srv: NewServer(m)}
	code, body := r.do(http.MethodPost, "/v1/runs", p.s.spec())
	if code != http.StatusCreated {
		p.fatalf("in-process submit = %d: %s", code, body)
	}
	id := p.decode(body).ID
	<-r.follow(id)
	_, v := p.get(r, id)
	if v.State != histdb.StateDone {
		p.fatalf("in-process run %s is %s (%s)", id, v.State, v.Error)
	}
	return v
}

// plane is one schedule's system.
type plane struct {
	t    testing.TB
	s    schedule
	dir  string
	net  *faultNet
	reps []*replica // reps[0] is replica a, the one that may crash
	// Replica a died admitting a resume: it wrote the queued frame, or not,
	// but its answer never left.
	diedAdmitting bool
}

func newPlane(t testing.TB, s schedule) *plane {
	p := &plane{t: t, s: s, dir: filepath.Join(t.TempDir(), "runs")}
	p.net = &faultNet{
		s:       s,
		workers: [2]http.Handler{worker.NewServer(1), worker.NewServer(2)},
		seen:    make(map[[2]uint64]int),
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	for i := 0; i < s.replicas; i++ {
		crashAt := 0
		if i == 0 {
			crashAt = s.crashAt
		}
		p.reps = append(p.reps, p.open(string(rune('a'+i)), crashAt))
	}
	return p
}

// fatalf fails the schedule; the message leads with the seed that replays it.
func (p *plane) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("seed %#x: "+format, append([]any{p.s.seed}, args...)...)
}

// open starts replica id on the store directory, measuring on the workers.
func (p *plane) open(id string, crashAt int) *replica {
	p.t.Helper()
	fs, err := histdb.OpenFileStore(p.dir)
	if err != nil {
		p.fatalf("replica %s: %v", id, err)
	}
	st := &crashStore{FileStore: fs, dir: p.dir, at: crashAt, image: p.s.image, cut: p.s.cut, compact: p.s.compact, crashed: make(chan struct{})}
	remote := func(job dispatch.Job) dispatch.Dispatcher {
		r := dispatch.NewRemote([]string{"http://w0", "http://w1"}, job)
		r.Client = &http.Client{Transport: p.net}
		return numbered{r, p.net}
	}
	m := NewManager(Options{Workers: 1, Store: st, ReplicaID: id, Build: func(s JobSpec) (*tuner.Problem, tuner.Algorithm, error) {
		return buildSpec(s, remote)
	}})
	return &replica{id: id, m: m, srv: NewServer(m), store: st}
}

func (p *plane) shutdown() {
	p.net.letGo()
	for _, r := range p.reps {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := r.m.Shutdown(ctx)
		cancel()
		if err != nil {
			p.t.Errorf("seed %#x: replica %s shutdown: %v", p.s.seed, r.id, err)
		}
	}
}

// decode reads a reply into a view.
func (p *plane) decode(body []byte) view {
	p.t.Helper()
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		p.fatalf("bad reply %q: %v", body, err)
	}
	return v
}

// pick draws a replica index from the schedule.
func (p *plane) pick() int {
	p.s.picks = mix(p.s.picks)
	return int(p.s.picks % uint64(len(p.reps)))
}

// submit posts the spec to r and follows the fresh run it must mint there.
func (p *plane) submit(r *replica) (string, <-chan struct{}) {
	p.t.Helper()
	p.net.admitting()
	code, body := r.do(http.MethodPost, "/v1/runs", p.s.spec())
	v := p.decode(body)
	if code != http.StatusCreated || !strings.HasPrefix(v.ID, "run-"+r.id+"-") {
		p.fatalf("submit on %s = %d, ID %q: %s", r.id, code, v.ID, body)
	}
	return v.ID, r.follow(v.ID)
}

// resume re-admits run id on a drawn replica — a sibling of a when the
// schedule rejoins — and asks a drawn replica again: the first answers 202,
// the second 409, wherever the run now is.
func (p *plane) resume(id string) (*replica, <-chan struct{}) {
	p.t.Helper()
	r, again := p.reps[p.pick()], p.reps[p.pick()]
	if p.s.rejoin && r == p.reps[0] {
		r = p.reps[1]
	}
	p.net.admitting()
	if code, body := r.do(http.MethodPost, "/v1/runs/"+id+"/resume", nil); code != http.StatusAccepted {
		p.fatalf("resume on %s = %d: %s", r.id, code, body)
	}
	if closed(r.store.crashed) {
		p.diedAdmitting = true
		return r, r.follow(id) // r died admitting it: its answer never left
	}
	if code, body := again.do(http.MethodPost, "/v1/runs/"+id+"/resume", nil); code != http.StatusConflict {
		p.fatalf("second resume on %s = %d: %s", again.id, code, body)
	}
	return r, r.follow(id)
}

// restart shuts replica a down and opens it again on the store directory,
// returning the replica it replaced.
func (p *plane) restart() *replica {
	p.t.Helper()
	a := p.reps[0]
	if err := a.m.Shutdown(context.Background()); err != nil {
		p.fatalf("replica a shutdown: %v", err)
	}
	p.reps[0] = p.open("a", 0)
	return a
}

// get reads run id's record through r.
func (p *plane) get(r *replica, id string) (int, view) {
	p.t.Helper()
	code, body := r.do(http.MethodGet, "/v1/runs/"+id, nil)
	return code, p.decode(body)
}

// run drives the schedule's run to done through every crash, hold and
// cancellation, then checks the invariants.
func (p *plane) run() {
	p.t.Helper()
	owner := p.reps[0]
	id, done := p.submit(owner)
	crashed, held := p.reps[0].store.crashed, p.net.held
	rejoin := false  // a restarts at the next park
	deleted := false // the execution running now was sent a DELETE
	for {
		select {
		case <-crashed:
		case <-held:
		case <-done:
		}
		switch {
		case closed(crashed):
			// Replica a is dead: it restarts on the same directory under the
			// same ID and finds the run as the crash left it. A later park
			// would wait on a replica that is gone, so the hold is off.
			crashed, held, deleted = nil, nil, false
			p.net.letGo()
			a := p.restart()
			<-done
			if a.store.err != nil {
				p.fatalf("landing frame %d: %v", p.s.crashAt, a.store.err)
			}
			code, v := p.get(p.reps[0], id)
			switch {
			case code == http.StatusNotFound:
				// The admission never reached the disk: the client, which
				// got no answer from the dead replica, submits again.
				owner = p.reps[0]
				id, done = p.submit(owner)
			case v.State == histdb.StateDone:
				done = nil
			case v.State == histdb.StateFailed && strings.HasPrefix(v.Error, "interrupted: "), v.State == histdb.StateCancelled:
				if p.s.rejoin {
					// A sibling takes the run; a restarts once it is parked
					// mid-flight there.
					held, rejoin = p.net.rehold(), true
				}
				owner, done = p.resume(id)
			default:
				p.fatalf("after replica a restarted, run %s is %s (%s)", id, v.State, v.Error)
			}
		case closed(held):
			// The run is mid-flight on owner: no other replica may resume
			// it, nor may its owner — nor replica a, restarted meanwhile
			// under the run's ID prefix.
			held = nil
			if rejoin {
				rejoin = false
				p.restart()
			}
			for _, r := range p.reps {
				code, body := r.do(http.MethodPost, "/v1/runs/"+id+"/resume", nil)
				if code != http.StatusConflict || !strings.Contains(string(body), "in flight") {
					p.fatalf("resume of live run %s on %s = %d: %s", id, r.id, code, body)
				}
			}
			if !p.s.cancel {
				p.net.letGo()
				continue
			}
			// DELETE lands within the parked batch and leaves a resumable
			// record; no later batch reaches the workers.
			p.net.deleting()
			deleted = true
			if code, body := owner.do(http.MethodDelete, "/v1/runs/"+id, nil); code != http.StatusOK {
				p.fatalf("DELETE %s on %s = %d: %s", id, owner.id, code, body)
			}
		default:
			// The events stream ends before the terminal append; reading
			// the record waits for it, which may be the crashing one.
			_, v := p.get(owner, id)
			if closed(crashed) {
				continue
			}
			p.noEscapes()
			if deleted && v.State != histdb.StateCancelled {
				p.fatalf("run %s ended %s (%s) after a DELETE", id, v.State, v.Error)
			}
			deleted = false
			switch v.State {
			case histdb.StateDone:
				done = nil
			case histdb.StateCancelled:
				owner, done = p.resume(id)
			default:
				p.fatalf("run %s ended %s on %s (%s)", id, v.State, owner.id, v.Error)
			}
		}
		if done == nil {
			p.check(id)
			return
		}
	}
}

// noEscapes fails the schedule if any request escaped cancellation.
func (p *plane) noEscapes() {
	p.t.Helper()
	if esc := p.net.escapes(); len(esc) > 0 {
		p.fatalf("%d requests escaped cancellation: %s", len(esc), strings.Join(esc, "; "))
	}
}

// closed reports whether ch is closed (a nil ch never is).
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// check asserts the invariants on finished run id.
func (p *plane) check(id string) {
	p.t.Helper()
	p.noEscapes()
	want := faultFreeRun(p.t, p.s.spec())
	p.net.mu.Lock()
	failed := p.net.failed
	p.net.mu.Unlock()
	a := p.reps[0].store
	a.mu.Lock()
	frames, err := a.frames, a.err
	a.mu.Unlock()
	if err != nil {
		p.fatalf("compacting at frame %d: %v", p.s.crashAt, err)
	}
	if p.s.crashAt == 0 && !p.s.cancel && frames != want.frames {
		// Network faults change no frame: the corpus lays crash points out
		// over the fault-free count.
		p.fatalf("an uninterrupted run appended %d frames, the fault-free run %d", frames, want.frames)
	}
	same := func(where string, v view) {
		p.t.Helper()
		if v.ID != id || v.State != histdb.StateDone {
			p.fatalf("%s: run %s is %s (%s), want %s done", where, v.ID, v.State, v.Error, id)
		}
		if !bytes.Equal(v.Result, want.Result) || !bytes.Equal(v.Continuous, want.Continuous) {
			p.fatalf("%s: result differs from the fault-free run:\n got %s %s\nwant %s %s", where, v.Result, v.Continuous, want.Result, want.Continuous)
		}
		if v.Collector.Hits != want.Collector.Hits || v.Collector.Misses != want.Collector.Misses {
			p.fatalf("%s: collector %+v, fault-free %+v", where, v.Collector, want.Collector)
		}
		// The execution that finished counts the shard resends it was forced to.
		if v.Collector.DispatchRetries != uint64(failed) {
			p.fatalf("%s: %d dispatch retries after %d failed requests", where, v.Collector.DispatchRetries, failed)
		}
	}
	for _, r := range p.reps {
		// Every replica answers the spec with the run, from the shared store.
		code, body := r.do(http.MethodPost, "/v1/runs", p.s.spec())
		if v := p.decode(body); code != http.StatusOK || !v.Deduped {
			p.fatalf("resubmit on %s = %d, deduped %v", r.id, code, v.Deduped)
		} else {
			same("resubmit on "+r.id, v)
		}
		if code, _ := r.do(http.MethodPost, "/v1/runs/"+id+"/resume", nil); code != http.StatusConflict {
			p.fatalf("resume of done run on %s = %d", r.id, code)
		}
		if code, _ := r.do(http.MethodDelete, "/v1/runs/"+id, nil); code != http.StatusConflict {
			p.fatalf("DELETE of done run on %s = %d", r.id, code)
		}
	}
	p.shutdown()

	st, err := histdb.OpenFileStore(p.dir)
	if err != nil {
		p.fatalf("strict reopen: %v", err)
	}
	defer st.Close()
	for _, rec := range st.List() {
		if rec.State != histdb.StateDone {
			p.fatalf("run %s ends %s (%s) in the store", rec.ID, rec.State, rec.Error)
		}
	}
	dones, err := doneFrames(p.dir)
	if err != nil {
		p.fatalf("scanning the store: %v", err)
	}
	if len(dones) != 1 || dones[id] != 1 {
		p.fatalf("done frames by run: %v, want exactly one for %s", dones, id)
	}
}

// doneFrames counts the intact frames in a store directory that record a
// run done, by run ID.
func doneFrames(dir string) (map[string]int, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	n := make(map[string]int)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) < 10 || line[len(line)-1] != '\n' || fmt.Sprintf("%08x", crc32.ChecksumIEEE(line[9:len(line)-1])) != string(line[:8]) {
				continue // a torn tail
			}
			var rec struct {
				ID    string          `json:"id"`
				State histdb.RunState `json:"state"`
			}
			if err := json.Unmarshal(line[9:], &rec); err != nil {
				return nil, err
			}
			if rec.State == histdb.StateDone {
				n[rec.ID]++
			}
		}
	}
	return n, nil
}
