// Package fetch is the segmented bulk-transfer protocol layered on the
// wire datapath: the application layer the paper's headline Proteus-S
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
// The scheduler core has one driver: an engine shard runs it as a fetch
// flow (Fetcher is the handle) against an engine serving a Store. On
// real sockets that is proteusfetch; on an engine.SimNet in virtual time
// it is the fault tests and the Appendix F experiment, whose fetch
// shares a simulated bottleneck with DASH and web foreground traffic.
package fetch

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pccproteus/internal/wire"
)

// DefaultSegSize is the default segment payload size: chosen so a full
// segment response is exactly one netem.MTU (1500) on the wire, which
// keeps sim and wire byte accounting aligned.
const DefaultSegSize = 1500 - wire.SegmentHeaderLen

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
// fetch requests. Load objects with Add/AddFile/ServeDir before wiring
// HandleFetch into an engine; after that the store is never mutated,
// so the shard goroutines read it without locking. The store holds no
// object bytes of its own: each segment is read from its object's
// source when it is requested, so memory is O(objects), not O(bytes).
type Store struct {
	SegSize int // payload bytes per segment (default DefaultSegSize)

	objs  map[uint64]*object
	files []*os.File // opened by AddFile; Close closes them
}

// NewStore returns an empty store with the given segment size (0 means
// DefaultSegSize).
func NewStore(segSize int) *Store {
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	if segSize > wire.MaxSegPayload {
		segSize = wire.MaxSegPayload
	}
	return &Store{SegSize: segSize, objs: make(map[uint64]*object)}
}

// Add registers the size bytes src holds from offset 0 under name,
// reading them once to compute the digest. The store keeps src and
// reads it again for every segment it serves, possibly from several
// goroutines at once; callers holding bytes pass a bytes.Reader and
// must not mutate the bytes afterwards. It returns the read error, or
// io.ErrUnexpectedEOF if src holds fewer than size bytes.
func (st *Store) Add(name string, src io.ReaderAt, size int64) (uint64, error) {
	if size < 0 {
		return 0, fmt.Errorf("fetch: %s: negative size %d", name, size)
	}
	h := sha256.New()
	n, err := io.Copy(h, io.NewSectionReader(src, 0, size))
	if err == nil && n < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, fmt.Errorf("fetch: reading %s: %w", name, err)
	}
	obj := &object{name: name, src: src, size: size}
	h.Sum(obj.digest[:0])
	id := ObjectID(name)
	st.objs[id] = obj
	return id, nil
}

// AddFile serves one file under its base name, at the size it has
// now. The file stays open until Close, and each segment is read from
// it with pread when it is requested. A file rewritten while it is
// served fails its fetch's SHA-256; one truncated answers nothing for
// the segments it lost.
func (st *Store) AddFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	id, err := st.Add(filepath.Base(path), f, fi.Size())
	if err != nil {
		f.Close()
		return 0, err
	}
	st.files = append(st.files, f)
	return id, nil
}

// ServeDir serves every regular file directly inside dir (no recursion)
// and returns their names, sorted.
func (st *Store) ServeDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if _, err := st.AddFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Close closes the files AddFile opened. The store must not serve
// after it.
func (st *Store) Close() error {
	var errs []error
	for _, f := range st.files {
		errs = append(errs, f.Close())
	}
	st.files = nil
	return errors.Join(errs...)
}

// TotalSegs returns the segment count for an object of size bytes at
// the given segment size: at least 1, so even an empty object has a
// well-formed geometry (one zero-byte segment).
func TotalSegs(size int64, segSize int) int64 {
	n := (size + int64(segSize) - 1) / int64(segSize)
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
	total := TotalSegs(size, st.SegSize)
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
	lo := h.Seg * int64(st.SegSize)
	payload := buf[wire.SegmentHeaderLen : wire.SegmentHeaderLen+min(int64(st.SegSize), size-lo)]
	// A short read's error says only why; the answer is silence.
	if n, _ := obj.src.ReadAt(payload, lo); n < len(payload) {
		return nil
	}
	return wire.EncodeSegment(buf, sh, payload)
}
