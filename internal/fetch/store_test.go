package fetch

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

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
const testSize = 10*DefaultSegSize + 517

// addSources adds one object of each source kind to st: bytes held in
// memory, a file, and the seeded generator RunLoopback serves.
func addSources(t *testing.T, st *Store) []storeObject {
	t.Helper()
	data := make([]byte, testSize)
	rand.New(rand.NewSource(3)).Read(data)
	path := filepath.Join(t.TempDir(), "file.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var objs []storeObject
	id, err := st.Add("mem", bytes.NewReader(data), testSize)
	if err != nil {
		t.Fatal(err)
	}
	objs = append(objs, storeObject{"memory", id, data})
	if id, err = st.AddFile(path); err != nil {
		t.Fatal(err)
	}
	objs = append(objs, storeObject{"file", id, data})
	gen := seededObject{seed: 5, size: testSize}
	if id, err = st.Add("gen", gen, gen.size); err != nil {
		t.Fatal(err)
	}
	seq, err := io.ReadAll(io.NewSectionReader(gen, 0, gen.size))
	if err != nil || len(seq) != testSize {
		t.Fatalf("sequential read of the generator: %d bytes, %v", len(seq), err)
	}
	return append(objs, storeObject{"generator", id, seq})
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
	st := NewStore(0)
	defer st.Close()
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize, DefaultSegSize)
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
			lo := seg * DefaultSegSize
			want := o.want[lo:min(lo+DefaultSegSize, testSize)]
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
	st := NewStore(0)
	if _, err := st.Add("short", bytes.NewReader(make([]byte, 100)), 101); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short source: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := st.Add("negative", bytes.NewReader(nil), -1); err == nil {
		t.Fatal("accepted a negative size")
	}
	if _, err := st.Add("whole", seededObject{size: 100}, 100); err != nil {
		t.Fatal(err)
	}
	broken := errors.New("device gone")
	if _, err := st.Add("broken", failingReader{broken}, 10); !errors.Is(err, broken) {
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
	st := NewStore(0)
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
	st := NewStore(0)
	defer st.Close()
	objs := addSources(t, st)
	file := objs[1]
	path := st.files[0].Name()
	cut := int64(4*DefaultSegSize + 100)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize, DefaultSegSize)
	for seg := int64(0); seg < total; seg++ {
		_, payload, ok := fetchSeg(t, st, file.id, seg, false, buf)
		lo := seg * DefaultSegSize
		if intact := lo+DefaultSegSize <= cut; ok != intact || ok && !bytes.Equal(payload, file.want[lo:lo+DefaultSegSize]) {
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
	st := NewStore(0)
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
	if _, payload, ok := fetchSeg(t, st, id, TotalSegs(64<<20, DefaultSegSize)-1, false, buf); !ok || len(payload) != (64<<20)%DefaultSegSize {
		t.Fatalf("last segment: ok=%v, %d bytes", ok, len(payload))
	}
}

// Serving a segment allocates nothing, whatever the source. Each run
// serves the metadata and every segment: AllocsPerRun truncates its
// average, so a run must allocate at least once if any request does.
func TestHandleFetchZeroAllocs(t *testing.T) {
	st := NewStore(0)
	defer st.Close()
	buf := make([]byte, wire.MaxDataLen)
	total := TotalSegs(testSize, DefaultSegSize)
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
	st := NewStore(0)
	defer st.Close()
	objs := addSources(t, st)
	total := TotalSegs(testSize, DefaultSegSize)
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
				lo := seg * DefaultSegSize
				if err != nil || !bytes.Equal(payload, o.want[lo:min(lo+DefaultSegSize, testSize)]) {
					t.Errorf("goroutine %d: %s seg %d served wrong: %v", g, o.kind, seg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
