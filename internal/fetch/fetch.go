// Package fetch is the segmented bulk-transfer protocol layered on the
// engine's datapath: the application layer the paper's headline Proteus-S
// use-case — software updates and backups that move bulk data without
// hurting foreground traffic — actually needs in order to be measured
// as *delivered application goodput* rather than opaque paced packets.
//
// The design is receiver-driven, in the style of NDN interest/data
// exchanges (and ndn-dpdk's segmented fetcher): an object is split into
// fixed-size segments; the fetcher issues FETCH requests — each naming
// one segment — paced and windowed by any transport.Controller, and the
// server answers each request with one SEGMENT response. Congestion
// control therefore runs at the *downloading* endpoint: the controller
// is fed acknowledgment callbacks whose byte currency is the expected
// response size, so its rate and window govern the response stream that
// actually crosses the bottleneck. Outstanding requests live in the
// shared transport.Recovery book (RACK-style reordering tolerance, an
// RTO backstop, outage survival); lost ones re-enter a retransmit
// queue by segment; delivery is in-order through a
// bounded reassembly window; integrity is checked per segment (CRC-32C)
// and end-to-end (whole-object SHA-256 from the metadata exchange).
//
// This package is the server half — a Store whose HandleFetch an
// engine calls for every FETCH — and a loopback harness. The client is
// the engine's third flow role (engine.AddFetch): a shard paces the
// requests and reassembles the responses. On real sockets that is
// proteusd fetch; on an engine.SimNet in virtual time it is the fault
// tests and the Appendix F experiment, whose fetch shares a simulated
// bottleneck with DASH and web foreground traffic.
package fetch

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pccproteus/internal/wire"
)

// ObjectID names an object: FNV-1a 64 of its name. Both ends derive it
// independently, so the wire protocol never carries strings.
func ObjectID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// object is one served blob: where its bytes are read from, how many
// there are, and the whole-object digest computed when it was added.
type object struct {
	name   string
	src    io.ReaderAt
	size   int64
	digest [wire.DigestLen]byte
}

// Store is the server side: a read-only set of named objects answering
// fetch requests. Load objects with Add (or AddFile/ServeDir, which
// call it) before wiring HandleFetch into an engine; after that the
// store is never mutated, so the shard goroutines read it without
// locking. The store holds no object bytes of its own: each segment is
// read from its object's source when it is requested, so memory is
// O(objects), not O(bytes).
type Store struct {
	objs  map[uint64]*object
	files []*os.File // opened by AddFile/ServeDir; Close closes them
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objs: make(map[uint64]*object)}
}

// Source is one object to add: its name, the reader its Size bytes are
// read from (at offsets 0 to Size), and their count.
type Source struct {
	Name string
	R    io.ReaderAt
	Size int64
}

// HashWorkers is the number of goroutines Add hashes a batch of n
// objects on: one per object, up to GOMAXPROCS.
func HashWorkers(n int) int {
	return min(n, runtime.GOMAXPROCS(0))
}

// Add registers a batch of objects and returns their IDs in input
// order. Each source is read once, in one streaming pass, for the
// digest the metadata response carries; the batch is hashed on
// HashWorkers(len(objs)) goroutines. The store keeps each source and
// reads it again for every segment it serves, possibly from several
// goroutines at once; callers holding bytes pass a bytes.Reader and
// must not mutate the bytes afterwards.
//
// Add is all or nothing: it registers no object unless every one read
// in full. It fails on a negative size, on a read error, with
// io.ErrUnexpectedEOF for a source holding fewer than Size bytes, and
// on a duplicate: a name repeated in the batch or already served, or
// a name whose ObjectID another object's already has.
func (st *Store) Add(objs ...Source) ([]uint64, error) {
	ids := make([]uint64, len(objs))
	names := make(map[uint64]string, len(objs))
	for i, o := range objs {
		if o.Size < 0 {
			return nil, fmt.Errorf("fetch: %s: negative size %d", o.Name, o.Size)
		}
		id := ObjectID(o.Name)
		other, dup := names[id]
		if held, ok := st.objs[id]; ok {
			other, dup = held.name, true
		}
		switch {
		case dup && other == o.Name:
			return nil, fmt.Errorf("fetch: %s: object added twice", o.Name)
		case dup:
			return nil, fmt.Errorf("fetch: %s: object ID %016x is already %s's", o.Name, id, other)
		}
		names[id] = o.Name
		ids[i] = id
	}
	digests := make([][wire.DigestLen]byte, len(objs))
	errs := make([]error, len(objs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range HashWorkers(len(objs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := sha256.New()
			buf := make([]byte, hashBuf)
			for i := int(next.Add(1) - 1); i < len(objs) && !failed.Load(); i = int(next.Add(1) - 1) {
				if errs[i] = digest(h, buf, objs[i], &digests[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, o := range objs {
		st.objs[ids[i]] = &object{name: o.Name, src: o.R, size: o.Size, digest: digests[i]}
	}
	return ids, nil
}

// hashBuf is the read size of Add's hashing pass.
const hashBuf = 32 << 10

// digest hashes o's content into sum, reading it through buf with h.
func digest(h hash.Hash, buf []byte, o Source, sum *[wire.DigestLen]byte) error {
	h.Reset()
	n, err := io.CopyBuffer(h, io.NewSectionReader(o.R, 0, o.Size), buf)
	if err == nil && n < o.Size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("fetch: reading %s: %w", o.Name, err)
	}
	h.Sum(sum[:0])
	return nil
}

// AddFile serves one file under its base name, at the size it has
// now. The file stays open until Close, and each segment is read from
// it with pread when it is requested. A file rewritten while it is
// served fails its fetch's SHA-256; one truncated answers nothing for
// the segments it lost.
func (st *Store) AddFile(path string) (uint64, error) {
	ids, err := st.addFiles([]string{path})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// ServeDir serves every regular file directly inside dir (no recursion),
// as AddFile does, in one Add, and returns their names, sorted.
func (st *Store) ServeDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names, paths []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if _, err := st.addFiles(paths); err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// addFiles opens the files at paths and adds them in one batch under
// their base names. The store keeps them open if Add succeeds; on any
// failure it closes every one it opened.
func (st *Store) addFiles(paths []string) (ids []uint64, err error) {
	files := make([]*os.File, 0, len(paths))
	defer func() {
		if err != nil {
			for _, f := range files {
				f.Close()
			}
		}
	}()
	srcs := make([]Source, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		srcs[i] = Source{Name: filepath.Base(path), R: f, Size: fi.Size()}
	}
	if ids, err = st.Add(srcs...); err != nil {
		return nil, err
	}
	st.files = append(st.files, files...)
	return ids, nil
}

// Bytes returns the total size of the objects the store serves.
func (st *Store) Bytes() int64 {
	var n int64
	for _, o := range st.objs {
		n += o.size
	}
	return n
}

// Close closes the files AddFile and ServeDir opened. The store must
// not serve after it.
func (st *Store) Close() error {
	var errs []error
	for _, f := range st.files {
		errs = append(errs, f.Close())
	}
	st.files = nil
	return errors.Join(errs...)
}

// TotalSegs returns the segment count for an object of size bytes: at
// least 1, so even an empty object has a well-formed geometry (one
// zero-byte segment).
func TotalSegs(size int64) int64 {
	n := (size + wire.SegSize - 1) / wire.SegSize
	if n < 1 {
		n = 1
	}
	return n
}

// HandleFetch answers one fetch request, encoding the SEGMENT response
// into buf and returning the packet slice, or nil for an unknown object,
// an out-of-range segment or a segment its source could not read in
// full (the fetcher treats silence as loss). The payload is read
// straight into buf. It has the exact signature of
// engine.Config.OnFetch.
func (st *Store) HandleFetch(h wire.FetchHeader, buf []byte) []byte {
	obj, ok := st.objs[h.ObjID]
	if !ok {
		return nil
	}
	size := obj.size
	total := TotalSegs(size)
	sh := wire.SegmentHeader{
		Nonce:      h.Nonce,
		SentAtEcho: h.SentAt,
		Meta:       h.Meta,
		ObjID:      h.ObjID,
		TotalSegs:  total,
		ObjSize:    size,
	}
	if h.Meta {
		return wire.EncodeSegment(buf, sh, obj.digest[:])
	}
	if h.Seg >= total {
		return nil
	}
	sh.Seg = h.Seg
	lo := h.Seg * wire.SegSize
	payload := buf[wire.SegmentHeaderLen : wire.SegmentHeaderLen+min(wire.SegSize, size-lo)]
	// A short read's error says only why; the answer is silence.
	if n, _ := obj.src.ReadAt(payload, lo); n < len(payload) {
		return nil
	}
	return wire.EncodeSegment(buf, sh, payload)
}
