package fetch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pccproteus/internal/wire"
)

// storeObject is one object a test store serves, with the bytes a
// sequential read of its source returns.
type storeObject struct {
	kind string
	id   uint64
	want []byte
}

// testSize is ten full segments and a short last one.
const testSize = 10*wire.SegSize + 517

// addSources adds three objects of each source kind to st in one
// batch: bytes held in memory, a file opened by the test, and the
// seeded generator RunLoopback serves.
func addSources(t *testing.T, st *Store) []storeObject {
	t.Helper()
	var srcs []Source
	var objs []storeObject
	for r := 0; r < 3; r++ {
		data := make([]byte, testSize)
		rand.New(rand.NewSource(int64(3 + r))).Read(data)
		path := filepath.Join(t.TempDir(), "file.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		gen := seededObject{seed: uint64(5 + r), size: testSize}
		seq, err := io.ReadAll(io.NewSectionReader(gen, 0, gen.size))
		if err != nil || len(seq) != testSize {
			t.Fatalf("sequential read of the generator: %d bytes, %v", len(seq), err)
		}
		srcs = append(srcs,
			Source{Name: fmt.Sprint("mem-", r), R: bytes.NewReader(data), Size: testSize},
			Source{Name: fmt.Sprint("file-", r), R: f, Size: testSize},
			Source{Name: fmt.Sprint("gen-", r), R: gen, Size: testSize})
		objs = append(objs,
			storeObject{kind: fmt.Sprint("memory ", r), want: data},
			storeObject{kind: fmt.Sprint("file ", r), want: data},
			storeObject{kind: fmt.Sprint("generator ", r), want: seq})
	}
	ids, err := st.Add(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		objs[i].id = ids[i]
	}
	return objs
}

// fetchSeg asks st for one segment (or the metadata) and decodes the
// response; ok is false when the store answers nothing.
func fetchSeg(t *testing.T, st *Store, id uint64, seg int64, meta bool, buf []byte) (sh wire.SegmentHeader, payload []byte, ok bool) {
	t.Helper()
	resp := st.HandleFetch(wire.FetchHeader{ObjID: id, Seg: seg, Meta: meta, Nonce: seg + 1, SentAt: 7}, buf)
	if resp == nil {
		return sh, nil, false
	}
	sh, payload, err := wire.DecodeSegment(resp)
	if err != nil {
		t.Fatalf("object %x seg %d: store sent an undecodable segment: %v", id, seg, err)
	}
	return sh, payload, true
}

// Every served segment of every source kind is the matching slice of a
// sequential read, the short last one included, and the digest served
// in the metadata is the SHA-256 of the whole content.
func TestStoreServesSegments(t *testing.T) {
	st := NewStore()
	defer st.Close()
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize)
	for _, o := range addSources(t, st) {
		sh, digest, ok := fetchSeg(t, st, o.id, 0, true, buf)
		if sum := sha256.Sum256(o.want); !ok || !bytes.Equal(digest, sum[:]) {
			t.Fatalf("%s: metadata digest %x, want %x", o.kind, digest, sum)
		}
		if sh.TotalSegs != total || sh.ObjSize != testSize {
			t.Fatalf("%s: geometry %d segs / %d bytes, want %d / %d", o.kind, sh.TotalSegs, sh.ObjSize, total, testSize)
		}
		for seg := int64(0); seg < total; seg++ {
			sh, payload, ok := fetchSeg(t, st, o.id, seg, false, buf)
			lo := seg * wire.SegSize
			want := o.want[lo:min(lo+wire.SegSize, testSize)]
			if !ok || sh.Seg != seg || sh.Nonce != seg+1 || sh.SentAtEcho != 7 || !bytes.Equal(payload, want) {
				t.Fatalf("%s seg %d: ok=%v header %+v, %d payload bytes, want %d matching the sequential read",
					o.kind, seg, ok, sh, len(payload), len(want))
			}
		}
		if _, _, ok := fetchSeg(t, st, o.id, total, false, buf); ok {
			t.Fatalf("%s: answered segment %d of %d", o.kind, total, total)
		}
	}
	if _, _, ok := fetchSeg(t, st, ObjectID("absent"), 0, true, buf); ok {
		t.Fatal("answered for an object the store does not hold")
	}
}

// Add reads its source once for the digest, and refuses a negative
// size or a source that fails or runs short instead of serving it.
func TestStoreAddReportsReadErrors(t *testing.T) {
	st := NewStore()
	if _, err := st.Add(Source{"short", bytes.NewReader(make([]byte, 100)), 101}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short source: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := st.Add(Source{"negative", bytes.NewReader(nil), -1}); err == nil {
		t.Fatal("accepted a negative size")
	}
	if _, err := st.Add(Source{"whole", seededObject{size: 100}, 100}); err != nil {
		t.Fatal(err)
	}
	broken := errors.New("device gone")
	if _, err := st.Add(Source{"broken", failingReader{broken}, 10}); !errors.Is(err, broken) {
		t.Fatalf("failing source: %v, want %v", err, broken)
	}
	if _, err := st.AddFile(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if len(st.objs) != 1 {
		t.Fatalf("%d objects registered, want only the one that read in full", len(st.objs))
	}
}

type failingReader struct{ err error }

func (r failingReader) ReadAt([]byte, int64) (int, error) { return 0, r.err }

// A batch with one bad source registers none of its objects and
// returns that source's error; a ServeDir whose Add fails closes every
// file it opened for the call.
func TestStoreAddAllOrNothing(t *testing.T) {
	st := NewStore()
	defer st.Close()
	held := addSources(t, st)
	broken := errors.New("device gone")
	for _, tc := range []struct {
		bad  Source
		want error
	}{
		{Source{"short", bytes.NewReader(make([]byte, 100)), 101}, io.ErrUnexpectedEOF},
		{Source{"broken", failingReader{broken}, 10}, broken},
	} {
		batch := []Source{
			{"good-0", seededObject{seed: 1, size: 1 << 16}, 1 << 16},
			tc.bad,
			{"good-1", bytes.NewReader(make([]byte, 5000)), 5000},
		}
		if ids, err := st.Add(batch...); !errors.Is(err, tc.want) || ids != nil {
			t.Fatalf("batch with %s: ids %v, err %v; want no IDs and %v", tc.bad.Name, ids, err, tc.want)
		}
		if len(st.objs) != len(held) {
			t.Fatalf("batch with %s: %d objects held, want the %d held before it", tc.bad.Name, len(st.objs), len(held))
		}
	}

	dir := t.TempDir()
	for _, name := range []string{"a.bin", "b.bin", "c.bin"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Add(Source{"b.bin", bytes.NewReader(nil), 0}); err != nil {
		t.Fatal(err)
	}
	files := len(st.files)
	if names, err := st.ServeDir(dir); err == nil {
		t.Fatalf("ServeDir served %q over an object already named b.bin", names)
	}
	if _, ok := st.objs[ObjectID("a.bin")]; ok || len(st.files) != files {
		t.Fatalf("failed ServeDir registered a.bin=%v, holds %d files (want %d)", ok, len(st.files), files)
	}
	if open := openFilesUnder(t, dir); len(open) != 0 {
		t.Fatalf("failed ServeDir left %q open", open)
	}
}

// openFilesUnder lists the files under dir this process holds open.
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// Add refuses a name repeated in its batch or already served, and a
// name whose ID another object already has, naming the object; the
// first object stays served and the batch registers nothing.
func TestStoreAddRejectsDuplicates(t *testing.T) {
	st := NewStore()
	first := bytes.NewReader([]byte("first"))
	if _, err := st.Add(Source{"a", first, 5}); err != nil {
		t.Fatal(err)
	}
	// No two short names are known to collide under FNV-64a, so plant
	// an object under the ID "c" will have.
	st.objs[ObjectID("c")] = &object{name: "planted", src: first, size: 5}
	for _, batch := range [][]Source{
		{{"b", first, 5}, {"a", first, 5}},
		{{"b", first, 5}, {"d", first, 5}, {"b", first, 5}},
		{{"b", first, 5}, {"c", first, 5}},
	} {
		dup := batch[len(batch)-1].Name
		ids, err := st.Add(batch...)
		if err == nil || !strings.Contains(err.Error(), dup) || ids != nil {
			t.Fatalf("batch ending in %q: ids %v, err %v; want an error naming %q", dup, ids, err, dup)
		}
		if _, ok := st.objs[ObjectID("b")]; ok || len(st.objs) != 2 {
			t.Fatalf("batch ending in %q registered objects: %d held", dup, len(st.objs))
		}
	}
	if _, digest, ok := fetchSeg(t, st, ObjectID("a"), 0, true, make([]byte, wire.MaxDataLen)); !ok || !bytes.Equal(digest, sha256sum([]byte("first"))) {
		t.Fatal("the first object under a repeated name is no longer served")
	}
}

func sha256sum(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}

// Add returns each object's ID at its input position, whatever order
// the workers finish in, and each ID serves its own object's digest.
func TestStoreAddReturnsIDsInInputOrder(t *testing.T) {
	st := NewStore()
	n := 2*runtime.GOMAXPROCS(0) + 3
	srcs := make([]Source, n)
	for i := range srcs {
		// Sizes fall with i, so later objects finish first.
		srcs[i] = Source{fmt.Sprint("obj-", i), seededObject{seed: uint64(i), size: int64(n-i) << 16}, int64(n-i) << 16}
	}
	ids, err := st.Add(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, wire.MaxDataLen)
	for i, s := range srcs {
		content, _ := io.ReadAll(io.NewSectionReader(s.R, 0, s.Size))
		if ids[i] != ObjectID(s.Name) {
			t.Fatalf("ID %d is %x, want %s's %x", i, ids[i], s.Name, ObjectID(s.Name))
		}
		if _, digest, ok := fetchSeg(t, st, ids[i], 0, true, buf); !ok || !bytes.Equal(digest, sha256sum(content)) {
			t.Fatalf("%s: served digest %x, want its content's", s.Name, digest)
		}
	}
}

// meetReader is a source whose reads wait until every source sharing
// its rendezvous has been read at least once, or fail after 5 s: a
// batch of them hashes only if Add reads its sources at the same time.
type meetReader struct {
	once   sync.Once
	arrive func()
	met    <-chan struct{}
}

func (r *meetReader) ReadAt(p []byte, off int64) (int, error) {
	r.once.Do(r.arrive)
	select {
	case <-r.met:
	case <-time.After(5 * time.Second):
		return 0, errors.New("no other source was read within 5 s: hashing is sequential")
	}
	clear(p)
	return len(p), nil
}

// With two cores, Add hashes two objects at once.
func TestStoreAddHashesInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	met := make(chan struct{})
	var waiting sync.WaitGroup
	waiting.Add(2)
	go func() { waiting.Wait(); close(met) }()
	srcs := make([]Source, 2)
	for i := range srcs {
		srcs[i] = Source{fmt.Sprint("meet-", i), &meetReader{arrive: waiting.Done, met: met}, 1 << 16}
	}
	st := NewStore()
	if _, err := st.Add(srcs...); err != nil {
		t.Fatal(err)
	}
}

// ServeDir serves the regular files directly inside a directory, and
// nothing else, and returns their names sorted.
func TestStoreServeDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.bin", "a.bin", "empty"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "nested"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "empty"), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("a.bin", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	names, err := st.ServeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.bin", "b.bin", "empty"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("ServeDir names %q, want %q", names, want)
	}
	buf := make([]byte, wire.MaxDataLen)
	for _, name := range []string{"sub", "nested", "link"} {
		if _, _, ok := fetchSeg(t, st, ObjectID(name), 0, true, buf); ok {
			t.Fatalf("serves %q, which is no regular file directly inside the directory", name)
		}
	}
	if _, payload, ok := fetchSeg(t, st, ObjectID("b.bin"), 0, false, buf); !ok || string(payload) != "b.bin" {
		t.Fatalf("b.bin segment 0: ok=%v %q", ok, payload)
	}
	// An empty file is one zero-byte segment.
	if sh, payload, ok := fetchSeg(t, st, ObjectID("empty"), 0, false, buf); !ok || sh.TotalSegs != 1 || len(payload) != 0 {
		t.Fatalf("empty file: ok=%v header %+v payload %d bytes", ok, sh, len(payload))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.files) != 0 {
		t.Fatalf("%d files still held after Close", len(st.files))
	}
}

// A file truncated while it is served answers nothing for the segments
// it lost, the one cut short included: never a short or corrupt one.
func TestStoreTruncatedFile(t *testing.T) {
	st := NewStore()
	defer st.Close()
	objs := addSources(t, st)
	file := objs[1]
	path := st.objs[file.id].src.(*os.File).Name()
	cut := int64(4*wire.SegSize + 100)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize)
	for seg := int64(0); seg < total; seg++ {
		_, payload, ok := fetchSeg(t, st, file.id, seg, false, buf)
		lo := seg * wire.SegSize
		if intact := lo+wire.SegSize <= cut; ok != intact || ok && !bytes.Equal(payload, file.want[lo:lo+wire.SegSize]) {
			t.Fatalf("seg %d after truncation to %d bytes: answered=%v (%d bytes), want answered=%v with the original bytes",
				seg, cut, ok, len(payload), intact)
		}
	}
}

// The generator reads the same bytes at any offset and length as its
// aligned reads do, reports io.EOF exactly when it runs out, and
// depends on nothing but its seed.
func TestStoreSeededObjectUnalignedReads(t *testing.T) {
	const size = 1000*8 + 3
	g := seededObject{seed: 11, size: size}
	full := make([]byte, size)
	if n, err := g.ReadAt(full, 0); n != size || err != nil {
		t.Fatalf("full read: %d, %v", n, err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(size + 16)
		p := make([]byte, rng.Intn(64))
		n, err := g.ReadAt(p, off)
		want := full[min(off, size):min(off+int64(len(p)), size)]
		if n != len(want) || !bytes.Equal(p[:n], want) {
			t.Fatalf("ReadAt(len %d, off %d) = %d bytes, want %d matching the aligned read", len(p), off, n, len(want))
		}
		if eof := n < len(p); eof != (err == io.EOF) || !eof && err != nil {
			t.Fatalf("ReadAt(len %d, off %d): n=%d err=%v", len(p), off, n, err)
		}
	}
	if _, err := g.ReadAt(make([]byte, 8), -1); err == nil {
		t.Fatal("negative offset read without error")
	}
	again := make([]byte, size)
	seededObject{seed: 11, size: size}.ReadAt(again, 0)
	other := make([]byte, size)
	seededObject{seed: 12, size: size}.ReadAt(other, 0)
	if !bytes.Equal(again, full) || bytes.Equal(other, full) {
		t.Fatal("generator content is not a function of its seed alone")
	}
}

// refSplitmix64 is splitmix64's output function, written out here as
// the reference the generator is checked against.
func refSplitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Byte b of a generated object is byte b mod 8 (little endian) of
// splitmix64(seed + (b/8)·golden gamma), at any offset and length.
func TestStoreSeededObjectMatchesReference(t *testing.T) {
	const seed, size = 0xfeed, 1<<14 + 5
	g := seededObject{seed: seed, size: size}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		off := rng.Int63n(size + 16)
		p := make([]byte, rng.Intn(200))
		n, _ := g.ReadAt(p, off)
		if want := int(min(int64(len(p)), max(size-off, 0))); n != want {
			t.Fatalf("ReadAt(len %d, off %d) = %d bytes, want %d", len(p), off, n, want)
		}
		for j := 0; j < n; j++ {
			b := uint64(off) + uint64(j)
			if want := byte(refSplitmix64(seed+b/8*0x9e3779b97f4a7c15) >> (8 * (b % 8))); p[j] != want {
				t.Fatalf("ReadAt(len %d, off %d): byte %d is %#02x, want %#02x", len(p), off, b, p[j], want)
			}
		}
	}
}

// The generator's content is pinned: this digest was computed before
// ReadAt wrote whole words, from a byte-at-a-time generator.
func TestStoreSeededObjectDigestPinned(t *testing.T) {
	const want = "85b66b3a5816d686deb42f2d2473d9a7121ceb75c822b838f958c76ca86ed8ea"
	g := seededObject{seed: 1, size: 1 << 20}
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(g, 0, g.size)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("seededObject{seed: 1, size: 1 MiB} hashes to %s, want %s", got, want)
	}
}

// Generating allocates nothing.
func TestStoreSeededObjectZeroAllocs(t *testing.T) {
	g := seededObject{seed: 3, size: 1 << 20}
	p := make([]byte, 32<<10)
	if allocs := testing.AllocsPerRun(100, func() { g.ReadAt(p[1:], 12345) }); allocs != 0 {
		t.Fatalf("%.0f allocations per read", allocs)
	}
}

func BenchmarkSeededObjectReadAt(b *testing.B) {
	g := seededObject{seed: 3, size: 1 << 30}
	p := make([]byte, 32<<10)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ReadAt(p, int64(i%(1<<15))*int64(len(p)))
	}
}

// The store keeps a file's handle, not its bytes: adding a 64 MiB file
// allocates a hashing buffer and bookkeeping, not the file.
func TestStoreDoesNotCopyFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sparse")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Truncate(path, 64<<20); err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, err := st.AddFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("AddFile of a 64 MiB file allocated %d bytes", grew)
	}
	buf := make([]byte, wire.MaxDataLen)
	if _, payload, ok := fetchSeg(t, st, id, TotalSegs(64<<20)-1, false, buf); !ok || len(payload) != (64<<20)%wire.SegSize {
		t.Fatalf("last segment: ok=%v, %d bytes", ok, len(payload))
	}
}

// Serving a segment allocates nothing, whatever the source. Each run
// serves the metadata and every segment: AllocsPerRun truncates its
// average, so a run must allocate at least once if any request does.
func TestHandleFetchZeroAllocs(t *testing.T) {
	st := NewStore()
	defer st.Close()
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize)
	for _, o := range addSources(t, st) {
		allocs := testing.AllocsPerRun(50, func() {
			for seg := int64(-1); seg < total; seg++ {
				h := wire.FetchHeader{ObjID: o.id, Seg: max(seg, 0), Meta: seg < 0, Nonce: seg + 1}
				if st.HandleFetch(h, buf) == nil {
					panic("store refused a valid request")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per object served", o.kind, allocs)
		}
	}
}

// Four goroutines serve from one store at once, as the shards of one
// proteusd do; run under -race.
func TestHandleFetchConcurrent(t *testing.T) {
	st := NewStore()
	defer st.Close()
	objs := addSources(t, st)
	total := TotalSegs(testSize)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, wire.MaxDataLen)
			for i := 0; i < 300; i++ {
				o := objs[(g+i)%len(objs)]
				seg := int64(g*7+i) % total
				resp := st.HandleFetch(wire.FetchHeader{ObjID: o.id, Seg: seg, Nonce: int64(i)}, buf)
				_, payload, err := wire.DecodeSegment(resp)
				lo := seg * wire.SegSize
				if err != nil || !bytes.Equal(payload, o.want[lo:min(lo+wire.SegSize, testSize)]) {
					t.Errorf("goroutine %d: %s seg %d served wrong: %v", g, o.kind, seg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
