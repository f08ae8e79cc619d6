package fetch

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Datapath loop tuning, matching the wire sender's real-time loops.
const (
	minSleep      = 50 * time.Microsecond
	maxSleep      = time.Millisecond
	rtoCheckEvery = 0.010
	readTimeout   = 50 * time.Millisecond

	// rttHistLo/Hi/Bins parameterize the per-fetch RTT histogram:
	// geometric bins from 100 µs to 10 s, ~7% relative resolution.
	rttHistLo   = 1e-4
	rttHistHi   = 10.0
	rttHistBins = 160
)

// FetcherStats is a snapshot of a running (or finished) fetch.
type FetcherStats struct {
	CoreStats
	BadResps  int64 // datagrams the segment codec rejected
	CrcErrs   int64 // segments whose payload failed its CRC
	SentBytes int64 // request bytes written to the socket
}

// Fetcher drives one segmented fetch over a datagram socket: a pacing
// loop issues FETCH requests under the controller's rate and window, a
// receive loop feeds SEGMENT responses back into the scheduler core.
// Configure the exported fields, then Start.
type Fetcher struct {
	// Conn is a connected datagram socket to the server (possibly via
	// the impairment shim). The fetcher owns it after Start.
	Conn wire.Conn
	CC   transport.Controller
	// ObjID names the object (fetch.ObjectID of its name).
	ObjID uint64
	// SegSize must match the server's store (default DefaultSegSize).
	SegSize int
	// Window bounds the reassembly window in segments.
	Window int
	// Burst is the request-train length per pacing wake (default
	// transport.DefaultBurst).
	Burst int
	// OnData observes each segment at in-order delivery (e.g. to write
	// the object to disk). Called from the receive goroutine.
	OnData func(seg int64, payload []byte)

	clock wire.Clock

	mu        sync.Mutex
	core      *Core
	pacer     wire.Pacer
	lastTick  float64
	rttHist   *stats.LogHist
	badResps  int64
	crcErrs   int64
	sentBytes int64

	reqBuf []byte

	started  bool
	done     chan struct{}
	complete chan struct{}
	compOnce sync.Once
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start validates configuration and launches the datapath goroutines.
func (f *Fetcher) Start() error {
	if f.started {
		return errors.New("fetch: fetcher already started")
	}
	if f.Conn == nil || f.CC == nil {
		return errors.New("fetch: fetcher needs Conn and CC")
	}
	core, err := NewCore(Config{
		ObjID: f.ObjID, CC: f.CC, SegSize: f.SegSize, Window: f.Window,
		Hash: true, OnData: f.OnData, OnRTT: func(rtt float64) { f.rttHist.Add(rtt) },
	})
	if err != nil {
		return err
	}
	if f.Burst <= 0 {
		f.Burst = transport.DefaultBurst
	}
	f.core = core
	f.rttHist = stats.NewLogHist(rttHistLo, rttHistHi, rttHistBins)
	f.clock = wire.NewClock()
	f.pacer.Cap = float64(2 * f.Burst * f.respSize())
	f.pacer.Reset(0)
	f.reqBuf = make([]byte, wire.FetchLen)
	f.done = make(chan struct{})
	f.complete = make(chan struct{})
	f.started = true
	f.wg.Add(2)
	go f.sendLoop()
	go f.recvLoop()
	return nil
}

// respSize is the full-segment response size, the pacing currency.
func (f *Fetcher) respSize() int {
	seg := f.SegSize
	if seg <= 0 {
		seg = DefaultSegSize
	}
	return wire.SegmentHeaderLen + seg
}

// Done is closed once the object is fully delivered and verified (or
// verification failed — check Stats().Verified).
func (f *Fetcher) Done() <-chan struct{} { return f.complete }

// Stop terminates both loops and closes the socket.
func (f *Fetcher) Stop() {
	f.stopOnce.Do(func() {
		close(f.done)
		f.Conn.Close()
	})
	f.wg.Wait()
}

// Stats returns a snapshot of the fetch's counters.
func (f *Fetcher) Stats() FetcherStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FetcherStats{
		CoreStats: f.core.Stats(),
		BadResps:  f.badResps, CrcErrs: f.crcErrs, SentBytes: f.sentBytes,
	}
}

// RTTQuantiles returns the p50/p95/p99 of the fetch's per-request RTT
// samples, in seconds.
func (f *Fetcher) RTTQuantiles() (p50, p95, p99 float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rttHist.Quantile(0.50), f.rttHist.Quantile(0.95), f.rttHist.Quantile(0.99)
}

func (f *Fetcher) sendLoop() {
	defer f.wg.Done()
	for {
		select {
		case <-f.done:
			return
		default:
		}
		f.mu.Lock()
		now := f.clock.Now()
		if now-f.lastTick >= rtoCheckEvery {
			f.lastTick = now
			if req, ok := f.core.Tick(now); ok {
				if !f.writeReq(req, now) {
					f.mu.Unlock()
					return
				}
			}
		}
		if f.core.Done() {
			f.mu.Unlock()
			f.compOnce.Do(func() { close(f.complete) })
			select {
			case <-f.done:
				return
			case <-time.After(maxSleep):
			}
			continue
		}
		rate := f.core.PacingRate()
		f.pacer.Advance(now, rate)
		// Requests are paced so the *responses* they elicit arrive at
		// the controller's target rate: the token bucket is charged the
		// expected response size per request, and each request's
		// scheduled-send stamp (Pacer.TakeStamped) advances the virtual
		// timeline by that response's serialization time. The echoed
		// stamp is what the shim's virtual bottleneck measures against,
		// so response arrivals are a deterministic function of the
		// request schedule — the engine sender's determinism property,
		// mirrored.
		gated := false
		if f.pacer.Delay(f.trainBytes(), rate) == 0 {
			for {
				size, ok := f.core.PeekSize()
				if !ok {
					gated = true
					break
				}
				virt, ok := f.pacer.TakeStamped(now, rate, size)
				if !ok {
					break
				}
				req, issued := f.core.Issue(now, virt)
				if !issued {
					break // cannot happen: pick is deterministic between Peek and Issue
				}
				if !f.writeReq(req, virt) {
					f.mu.Unlock()
					return
				}
			}
		}
		var sleep time.Duration
		if gated {
			sleep = maxSleep
		} else {
			d := f.pacer.Delay(f.trainBytes(), rate)
			sleep = time.Duration(d * float64(time.Second))
			if sleep > maxSleep {
				sleep = maxSleep
			}
		}
		f.mu.Unlock()
		if sleep < minSleep {
			sleep = minSleep
		}
		select {
		case <-f.done:
			return
		case <-time.After(sleep):
		}
	}
}

func (f *Fetcher) trainBytes() int { return f.Burst * f.respSize() }

// writeReq encodes and transmits one request with its scheduled send
// stamp. Called with the mutex held; reports false only on a closed
// socket.
func (f *Fetcher) writeReq(req Request, virt float64) bool {
	pkt := wire.EncodeFetch(f.reqBuf, wire.FetchHeader{
		ObjID: f.ObjID, Seg: req.Seg, Nonce: req.Nonce,
		SentAt: f.clock.NanosAt(virt), Meta: req.Meta,
	})
	f.sentBytes += int64(len(pkt))
	if _, err := f.Conn.Write(pkt); err != nil {
		// A full socket buffer is a loss the datapath will detect; only
		// a closed socket ends the loop.
		return !isClosed(err)
	}
	return true
}

func (f *Fetcher) recvLoop() {
	defer f.wg.Done()
	buf := make([]byte, 65536)
	for {
		select {
		case <-f.done:
			return
		default:
		}
		f.Conn.SetReadDeadline(time.Now().Add(readTimeout))
		n, err := f.Conn.Read(buf)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			if isClosed(err) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		h, payload, derr := wire.DecodeSegment(buf[:n])
		f.mu.Lock()
		if derr != nil {
			if errors.Is(derr, wire.ErrChecksum) {
				f.crcErrs++
			}
			f.badResps++
			f.mu.Unlock()
			continue
		}
		now := f.clock.Now()
		// Prefer the shim's emulated arrival stamp; on a bare path the
		// fetcher's own clock at read is the truth.
		recvAt := now
		if h.Arrival != 0 {
			recvAt = f.clock.SecondsSince(h.Arrival)
		}
		f.core.OnResponse(Response{
			Nonce: h.Nonce, Seg: h.Seg, Meta: h.Meta,
			TotalSegs: h.TotalSegs, ObjSize: h.ObjSize, Payload: payload,
		}, recvAt, now)
		fin := f.core.Done()
		f.mu.Unlock()
		if fin {
			f.compOnce.Do(func() { close(f.complete) })
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed)
}
