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
	"hash/fnv"
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

// object is one served blob with its precomputed whole-object digest.
type object struct {
	name   string
	data   []byte
	digest [wire.DigestLen]byte
}

// Store is the server side: a read-only set of named objects answering
// fetch requests. Load objects with Add/AddFile/ServeDir before wiring
// HandleFetch into an engine; after that the store is never mutated,
// so the shard goroutines read it without locking.
type Store struct {
	SegSize int // payload bytes per segment (default DefaultSegSize)

	objs map[uint64]*object
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

// Add registers data under name. The store aliases data; callers must
// not mutate it afterwards.
func (st *Store) Add(name string, data []byte) uint64 {
	id := ObjectID(name)
	st.objs[id] = &object{name: name, data: data, digest: sha256.Sum256(data)}
	return id
}

// AddFile loads one file from disk under its base name.
func (st *Store) AddFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return st.Add(filepath.Base(path), data), nil
}

// ServeDir loads every regular file directly inside dir (sorted, no
// recursion) and returns the loaded names.
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
// into buf and returning the packet slice, or nil for an unknown object
// or out-of-range segment (the fetcher treats silence as loss). It has
// the exact signature of engine.Config.OnFetch.
func (st *Store) HandleFetch(h wire.FetchHeader, buf []byte) []byte {
	obj, ok := st.objs[h.ObjID]
	if !ok {
		return nil
	}
	size := int64(len(obj.data))
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
	hi := lo + int64(st.SegSize)
	if hi > size {
		hi = size
	}
	return wire.EncodeSegment(buf, sh, obj.data[lo:hi])
}
