package histdb

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ceal/internal/score"
)

// FileStore is a disk-backed Store built on a segmented append-only log:
// path is a directory of fixed-capacity segment files, each a sequence of
// CRC-framed JSON frames, replayed in order on open. A record frame (one per
// Save) replaces its run's record; a progress frame (one per SaveProgress)
// folds into it, and is ignored for a run the log has not seen or has
// already finished. Every writer appends only to segments it created
// itself — named with a per-process writer ID — so multiple processes
// (ceal-serve replicas, ceal-tune -history) can share one store directory
// without ever rewriting or interleaving into each other's files. Refresh
// picks up frames other writers appended since open.
//
// Framing is an 8-hex-digit CRC32 (IEEE) of the JSON payload, a kind byte
// — a space for a record, '+' for a progress frame — the payload, and a
// newline:
//
//	crc32hex <record json>\n
//	crc32hex+<progress json>\n
//
// The two kind bytes differ in three bits, so no single flipped bit turns
// one kind into the other. A served run carries no pool scores, and
// encoding/json round-trips any that a record does carry bit for bit.
//
// The payload is json.Marshal's bytes, which the store's own encoder and
// decoder handle, each falling back to encoding/json. Compact copies the
// record frames the store remembers — written by Save or replayed through
// the canonical decoder, and no progress frame naming the run since — and
// re-encodes only the rest.
//
// Crash tolerance: a process killed mid-append can leave a torn frame at
// the tail of its segment, which for a progress frame loses that one
// batch's progress. Replay drops a damaged tail — the framed prefix
// is still a consistent store state — but refuses a segment with intact
// records after the damage, which only real corruption can produce.
// Crashed writers never resume a tail-damaged segment: a reopened store
// starts a fresh segment, so damage stays confined where it happened.
// Save is write + flush to the OS, so a saved record survives a process
// kill; only Compact fsyncs, so a power cut may lose the unsynced tail,
// which replay then treats as a torn tail.
type FileStore struct {
	mem *MemStore

	// segmentBytes is the size at which Save rolls to a fresh segment
	// (tests shrink it before the first Save).
	segmentBytes int64

	mu       sync.Mutex // serializes appends, rolls, compaction
	dir      string
	writerID string
	segSeq   int      // sequence number of the active segment
	segName  string   // file name of the active segment
	f        *os.File // active segment; nil until the first Save
	w        *bufio.Writer
	size     int64               // bytes appended to the active segment
	offsets  map[string]int64    // replayed bytes per segment file name
	frames   map[string]frameRef // record ID → its current frame, if exact
}

// frameRef locates a record frame that is byte for byte what encodeFramed
// writes for the record the store holds: Compact copies it.
type frameRef struct {
	seg string
	off int64
	n   int
}

// defaultSegmentBytes is the segment roll threshold.
const defaultSegmentBytes = 4 << 20

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	tmpSuffix = ".tmp"
)

// OpenFileStore opens (or creates) the segmented run log rooted at path,
// which must be a directory (or not exist yet).
func OpenFileStore(path string) (*FileStore, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		if fi, serr := os.Stat(path); serr == nil && !fi.IsDir() {
			return nil, fmt.Errorf("histdb: %s is a file, not a segmented store directory", path)
		}
		return nil, err
	}
	s := &FileStore{
		mem:          NewMemStore(),
		segmentBytes: defaultSegmentBytes,
		dir:          path,
		writerID:     newWriterID(),
		offsets:      make(map[string]int64),
		frames:       make(map[string]frameRef),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// newWriterID returns a short random ID distinguishing this process's
// segments from every other writer's on a shared directory.
func newWriterID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the PID: uniqueness among live writers still holds.
		return fmt.Sprintf("%08x", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// segments lists the store's segment file names in replay order: by
// segment sequence, then writer ID (both part of the zero-padded name, so
// plain lexical order is correct). Temp files from interrupted compactions
// are never replayed.
func (s *FileStore) segments() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if _, err := segmentSeq(name); err != nil {
			continue // foreign file that merely resembles a segment
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// segmentSeq parses the sequence number out of a segment file name
// (seg-%08d-<writer>.log).
func segmentSeq(name string) (int, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	seqStr, _, ok := strings.Cut(body, "-")
	if !ok {
		return 0, fmt.Errorf("histdb: malformed segment name %q", name)
	}
	return strconv.Atoi(seqStr)
}

func segmentName(seq int, writerID string) string {
	return fmt.Sprintf("%s%08d-%s%s", segPrefix, seq, writerID, segSuffix)
}

// load replays every segment into the in-memory view and records how far
// each was consumed, so Refresh only reads what other writers append later.
// All segments are read through one buffer, grown to the largest.
func (s *FileStore) load() error {
	names, err := s.segments()
	if err != nil {
		return err
	}
	var buf []byte
	for _, name := range names {
		n, err := s.replaySegment(name, 0, true, &buf)
		if err != nil {
			return err
		}
		s.offsets[name] = n
		if seq, err := segmentSeq(name); err == nil && seq > s.segSeq {
			s.segSeq = seq
		}
	}
	return nil
}

// replaySegment reads what one segment holds past the given byte offset —
// nothing at all, after one stat, when the file ends there — applies every
// intact framed record to the in-memory view, and returns the new consumed
// offset. A damaged or incomplete record stops the replay at its start. In
// strict mode (open-time load) damage followed by an intact record is real
// corruption and fails the open; lenient mode (Refresh, where a torn tail
// may simply be another writer mid-append) never errors. The bytes are read
// into *buf, grown when too small; nothing decoded aliases it, so the caller
// reuses it for the next segment.
func (s *FileStore) replaySegment(name string, offset int64, strict bool, buf *[]byte) (int64, error) {
	path := filepath.Join(s.dir, name)
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return offset, nil // compacted away since the directory listing
	}
	if err != nil {
		return offset, err
	}
	size := fi.Size()
	if size == offset {
		return offset, nil
	}
	if offset > size {
		if strict {
			return offset, fmt.Errorf("histdb: %s shrank from %d to %d bytes", path, offset, size)
		}
		return offset, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return offset, nil
	}
	if err != nil {
		return offset, err
	}
	defer f.Close()
	if int64(cap(*buf)) < size-offset {
		*buf = make([]byte, size-offset)
	}
	rest := (*buf)[:size-offset]
	n, err := f.ReadAt(rest, offset)
	if err != nil && err != io.EOF {
		return offset, err
	}
	rest = rest[:n] // short only if the file shrank since the stat
	var lines [][]byte
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // incomplete tail: a crash artifact or an append in flight
		}
		lines = append(lines, rest[:nl])
		rest = rest[nl+1:]
	}
	// Decode on every processor, then apply strictly in log order: a nil
	// entry is a damaged frame, and nothing at or past the first one counts.
	frames, canonical := make([]any, len(lines)), make([]bool, len(lines))
	score.New(runtime.GOMAXPROCS(0)).Tasks(len(lines), func(i int) { frames[i], canonical[i], _ = decodeFramed(lines[i]) })
	consumed := offset
	s.mem.mu.Lock()
	defer s.mem.mu.Unlock()
	for i, f := range frames {
		switch f := f.(type) {
		case *RunRecord:
			s.mem.put(f)
			s.remember(f.ID, canonical[i], frameRef{name, consumed, len(lines[i]) + 1})
		case *Progress:
			s.mem.fold(f)
			delete(s.frames, f.ID)
		default:
			// Tail damage is tolerated; damage with intact frames after it is not.
			if strict && slices.ContainsFunc(frames[i+1:], func(f any) bool { return f != nil }) {
				return consumed, &CorruptError{Path: path, Offset: consumed}
			}
			return consumed, nil
		}
		consumed += int64(len(lines[i]) + 1)
	}
	return consumed, nil
}

// CorruptError refuses a strict open of a segment whose damaged frame at
// Offset has intact ones after it, which a crash, tearing a tail, never leaves.
type CorruptError struct {
	Path   string
	Offset int64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("histdb: %s: corrupt record at offset %d followed by intact records", e.Path, e.Offset)
}

// Frame kinds: the byte between a frame's checksum and its payload.
const (
	recordFrame   = ' '
	progressFrame = '+'
)

// decodeFramed validates one "crc32hex<kind><json>" line and decodes its
// payload as its kind says: a *RunRecord or a *Progress, or nil and an
// error. decodeCanonical reads what encodeFramed writes in one pass, and
// canonical reports it did; json.Unmarshal, the reference, reads the rest
// and gives every error.
func decodeFramed(line []byte) (v any, canonical bool, err error) {
	if len(line) < 10 || (line[8] != recordFrame && line[8] != progressFrame) {
		return nil, false, fmt.Errorf("histdb: short or unframed record")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false, fmt.Errorf("histdb: bad record checksum field: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, false, fmt.Errorf("histdb: record checksum mismatch: %08x != %08x", got, want)
	}
	v = new(RunRecord)
	if line[8] == progressFrame {
		v = new(Progress)
	}
	if canonical = decodeCanonical(payload, v); !canonical {
		if err := json.Unmarshal(payload, v); err != nil {
			return nil, false, err
		}
	}
	return v, canonical, nil
}

// encodeFramed appends v, a *RunRecord or *Progress, to dst as a frame of
// the given kind: the header, json.Marshal's bytes, a newline.
// encodeCanonical writes the payload, and json.Encoder what it declines. A
// value encoding/json refuses — a NaN or ±Inf anywhere in it — is refused
// with that error: the HTTP API could not marshal it back out.
func encodeFramed(dst []byte, kind byte, v any) ([]byte, error) {
	start := len(dst)
	line, ok := encodeCanonical(append(dst, "crc32hex "...), v)
	if ok {
		line = append(line, '\n')
	} else {
		w := frameWriter(append(dst[:start], "crc32hex "...))
		if err := json.NewEncoder(&w).Encode(v); err != nil {
			return dst[:start], err
		}
		line = w
	}
	h := frameHeader(line[start+9:len(line)-1], kind)
	copy(line[start:], h[:])
	return line, nil
}

// frameHeader is the header of a frame of the given kind: the payload's
// CRC32 as 8 lowercase hex digits, then the kind byte.
func frameHeader(payload []byte, kind byte) (h [9]byte) {
	crc := crc32.ChecksumIEEE(payload)
	for k := 7; k >= 0; k, crc = k-1, crc>>4 {
		h[k] = "0123456789abcdef"[crc&15]
	}
	h[8] = kind
	return h
}

// frameWriter appends what json.Encoder writes, a value in one Write.
type frameWriter []byte

func (w *frameWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// Save implements Store: append the framed record to this writer's active
// segment, rolling to a fresh one at the size threshold, then update the
// in-memory view — a save that fails leaves memory where the disk is.
func (s *FileStore) Save(rec *RunRecord) error {
	return s.write(recordFrame, rec, rec.ID, func() error { return s.mem.Save(rec) })
}

// SaveProgress implements Store the way Save does, with a progress frame.
func (s *FileStore) SaveProgress(p *Progress) error {
	return s.write(progressFrame, p, p.ID, func() error { return s.mem.SaveProgress(p) })
}

// lineBufs recycles the buffers write frames into.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// write appends v as a frame of the given kind, then applies it to memory.
func (s *FileStore) write(kind byte, v any, id string, apply func() error) error {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	line, err := encodeFramed((*buf)[:0], kind, v)
	if err != nil {
		return err
	}
	*buf = line
	s.mu.Lock()
	defer s.mu.Unlock()
	off, err := s.append(line)
	if err != nil {
		// The segment may now end in a torn frame, and its bufio.Writer
		// keeps the error: drop it, so the next write rolls a fresh one.
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
		return err
	}
	s.remember(id, kind == recordFrame, frameRef{s.segName, off, len(line)})
	return apply()
}

// remember notes where id's current frame sits when that frame is exact,
// and forgets it otherwise (caller holds mu, or is the open).
func (s *FileStore) remember(id string, exact bool, ref frameRef) {
	if exact {
		s.frames[id] = ref
	} else {
		delete(s.frames, id)
	}
}

// append writes one framed line to the active segment and returns its
// offset there (caller holds mu).
func (s *FileStore) append(line []byte) (int64, error) {
	if s.f == nil || (s.size > 0 && s.size+int64(len(line)) > s.segmentBytes) {
		if err := s.roll(); err != nil {
			return 0, err
		}
	}
	if _, err := s.w.Write(line); err != nil {
		return 0, err
	}
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	off := s.size
	s.size += int64(len(line))
	s.offsets[s.segName] += int64(len(line))
	return off, nil
}

// roll closes the active segment and opens the next one (caller holds mu).
func (s *FileStore) roll() error {
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
		if err := s.f.Close(); err != nil {
			return err
		}
		s.f = nil
	}
	for {
		s.segSeq++
		name := segmentName(s.segSeq, s.writerID)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if os.IsExist(err) {
			continue // another writer claimed this sequence number first
		}
		if err != nil {
			return err
		}
		s.f, s.segName = f, name
		s.w = bufio.NewWriter(f)
		s.size = 0
		s.offsets[name] = 0
		return nil
	}
}

// Refresh folds in records that other writers appended to the shared
// directory since open (or the previous Refresh): new segments, and new
// bytes at the tail of known ones. Torn tails — a concurrent writer caught
// mid-append — are simply left for the next Refresh. Our own appends are
// already in memory and are skipped via the per-segment offsets.
func (s *FileStore) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, err := s.segments()
	if err != nil {
		return err
	}
	var buf []byte
	for _, name := range names {
		n, err := s.replaySegment(name, s.offsets[name], false, &buf)
		if err != nil {
			return err
		}
		if n > s.offsets[name] {
			s.offsets[name] = n
		}
		if seq, err := segmentSeq(name); err == nil && seq > s.segSeq && s.f == nil {
			s.segSeq = seq // don't hide a newer writer's segments behind ours
		}
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(id string) (*RunRecord, bool) { return s.mem.Get(id) }

// List implements Store.
func (s *FileStore) List() []*RunRecord { return s.mem.List() }

// BySpec implements Store.
func (s *FileStore) BySpec(key string) (*RunRecord, bool) { return s.mem.BySpec(key) }

// ByComponent implements Store.
func (s *FileStore) ByComponent(name string) []*RunRecord { return s.mem.ByComponent(name) }

// BySpecFamily implements Store.
func (s *FileStore) BySpecFamily(family string) []*RunRecord { return s.mem.BySpecFamily(family) }

// Close flushes and closes the active segment.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Compact rewrites the store to its current state — one record per run,
// progress folded in — as a single snapshot segment numbered above every
// existing one, then deletes the older segments. The snapshot is written
// to a temp file, synced, and atomically renamed into place: a crash
// before the rename leaves only an ignorable temp file; a crash after it
// leaves the old segments alongside the snapshot, whose higher sequence
// number makes replay converge to the same state. Compact is maintenance for a
// quiescent store: it garbage-collects every writer's segments, so don't
// run it while other processes are appending.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Make the active segment durable and let it go: it is about to be GC'd.
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
		if err := s.f.Close(); err != nil {
			return err
		}
		s.f = nil
	}

	old, err := s.segments()
	if err != nil {
		return err
	}
	// Open every segment holding a remembered frame; a vanished one leaves
	// its frames to be encoded again.
	files := make(map[string]*os.File)
	for _, ref := range s.frames {
		if _, ok := files[ref.seg]; !ok {
			files[ref.seg], _ = os.Open(filepath.Join(s.dir, ref.seg))
		}
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	recs := s.mem.List()
	lens := make([]int, len(recs))
	s.segSeq++
	snap := segmentName(s.segSeq, s.writerID)
	size, err := writeSegment(filepath.Join(s.dir, snap), len(recs), func(i int, buf []byte) ([]byte, error) {
		line, err := s.snapshotFrame(buf, files, recs[i])
		lens[i] = len(line)
		return line, err
	})
	if err != nil {
		return err
	}

	clear(s.offsets)
	s.offsets[snap] = size
	clear(s.frames)
	var off int64
	for i, rec := range recs {
		s.frames[rec.ID] = frameRef{snap, off, lens[i]}
		off += int64(lens[i])
	}
	for _, name := range old {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	// Sweep temp files from compactions that died before their rename.
	if strays, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+tmpSuffix)); err == nil {
		for _, stray := range strays {
			os.Remove(stray)
		}
	}
	syncDir(s.dir)

	// Reopen the snapshot for appends so post-compact Saves keep working.
	f, err := os.OpenFile(filepath.Join(s.dir, snap), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f, s.segName = f, snap
	s.w = bufio.NewWriter(f)
	s.size = size
	return nil
}

// snapshotFrame returns rec's frame for a snapshot, in buf: its remembered
// frame when the segment still holds it whole under its checksum, and
// encodeFramed's otherwise.
func (s *FileStore) snapshotFrame(buf []byte, files map[string]*os.File, rec *RunRecord) ([]byte, error) {
	if ref, ok := s.frames[rec.ID]; ok && files[ref.seg] != nil {
		line := slices.Grow(buf[:0], ref.n)[:ref.n]
		if _, err := files[ref.seg].ReadAt(line, ref.off); err == nil && line[ref.n-1] == '\n' {
			if h := frameHeader(line[9:ref.n-1], recordFrame); string(h[:]) == string(line[:9]) {
				return line, nil
			}
		}
	}
	return encodeFramed(buf[:0], recordFrame, rec)
}

// writeSegment writes frames 0…n-1 as one segment via tmp+fsync+rename and
// returns its byte size. frame appends frame i to buf, one of a batch's
// buffers, reused batch after batch; a batch is framed on every processor,
// then written in order.
func writeSegment(path string, n int, frame func(i int, buf []byte) ([]byte, error)) (int64, error) {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	var size int64
	const batch = 64
	bufs, errs := make([][]byte, batch), make([]error, batch)
	for lo := 0; lo < n; lo += batch {
		score.New(runtime.GOMAXPROCS(0)).Tasks(min(batch, n-lo), func(i int) { bufs[i], errs[i] = frame(lo+i, bufs[i][:0]) })
		for i := range min(batch, n-lo) {
			err := errs[i]
			if err == nil {
				_, err = w.Write(bufs[i])
			}
			if err != nil {
				f.Close()
				os.Remove(tmp)
				return 0, err
			}
			size += int64(len(bufs[i]))
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
