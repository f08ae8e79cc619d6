package fetch

import (
	"errors"
	"net/netip"

	"pccproteus/internal/engine"
	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// FetcherStats is a snapshot of a running (or finished) fetch, taken at
// one instant on its shard: at most 10 ms old while the fetch runs,
// exact once Done is closed. It is all zero until the first tick.
type FetcherStats struct {
	CoreStats
	// BadResps counts datagrams the segment codec rejected: CrcErrs plus
	// every datagram the shard refused outright (those name no fetch).
	BadResps  int64
	CrcErrs   int64 // segments whose payload failed its CRC
	SentBytes int64 // request bytes handed to the socket
}

// Fetcher is one segmented fetch running as a fetch flow on an engine
// shard, and the cross-goroutine handle for it, as engine.Flow is for a
// sender: the shard paces FETCH requests under the controller's rate
// and window and feeds SEGMENT responses to the scheduler core.
// Configure the exported fields, then Start. Done (closed once the
// object is delivered — check Stats().Verified — or the fetch stopped)
// and Stop (OnData is not called again after it) are the embedded flow's.
type Fetcher struct {
	*engine.FetchFlow

	// Dst is the server (possibly via the impairment shim).
	Dst netip.AddrPort
	CC  transport.Controller
	// ObjID names the object (fetch.ObjectID of its name).
	ObjID uint64
	// SegSize must match the server's store (default DefaultSegSize).
	SegSize int
	// Window bounds the reassembly window in segments.
	Window int
	// OnData observes each segment at in-order delivery, on the shard's
	// goroutine; payload is valid only during the call (copy what you keep).
	OnData func(seg int64, payload []byte)

	core *Core // shard-goroutine-owned but for its published stats
}

// Start validates configuration and admits the fetch to eng, whose
// MaxPacket must cover a full segment response. The overload class
// follows the controller: a scavenger's fetch is a scavenger flow.
func (f *Fetcher) Start(eng *engine.Engine) error {
	if f.FetchFlow != nil {
		return errors.New("fetch: fetcher already started")
	}
	if f.CC == nil || !f.Dst.IsValid() {
		return errors.New("fetch: fetcher needs Dst and CC")
	}
	core, err := NewCore(Config{
		ObjID: f.ObjID, CC: f.CC, SegSize: f.SegSize, Window: f.Window, OnData: f.OnData,
	})
	if err != nil {
		return err
	}
	f.core = core
	f.FetchFlow, err = eng.AddFetch(f.Dst, f.ObjID, core,
		wire.SegmentHeaderLen+core.cfg.SegSize, overload.ClassOf(f.CC.Name()))
	return err
}

// Stats returns the fetch's last published counters.
func (f *Fetcher) Stats() FetcherStats { return f.core.published() }
