package wire

import "testing"

// This file exports the per-packet micro-benchmarks so the repo
// benchmark (benchmark/) can run them via testing.Benchmark from a
// regular binary. They cover what package wire contributes to the
// engine's send and ack paths; the full per-packet path (flow state,
// controller callbacks, wheel) is engine.RunHotpathBench.

// benchSink keeps the compiler from discarding the benchmarked calls.
var benchSink int

// RunPacerBench is wire's share of the per-packet send path:
// token-bucket Advance + Take, then a data header encode.
func RunPacerBench(b *testing.B) {
	const rate, size = 125e6, 1200
	p := Pacer{Cap: 8 * size}
	buf := make([]byte, size)
	now := 0.0
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-4
		p.Advance(now, rate)
		p.Take(size)
		pkt := EncodeData(buf, DataHeader{Seq: int64(i), SentAt: int64(now * 1e9), Flow: 1}, size)
		benchSink += int(pkt[9]) // low byte of the encoded seq
	}
}

// RunAckBench is wire's share of the per-ack path: the receiver
// records the sequence in its AckTracker and encodes the ack, the
// sender decodes it.
func RunAckBench(b *testing.B) {
	var (
		tr       AckTracker
		buf      [MaxAckLen]byte
		ack, out AckPacket
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(int64(i))
		ack.Seq, ack.CumAck, ack.RecvAt = int64(i), tr.Cum, int64(i)*100_000
		if err := DecodeAck(ack.Encode(buf[:]), &out); err != nil {
			b.Fatal(err)
		}
		benchSink += int(out.CumAck)
	}
}
