package wire

import "testing"

// The hot path must stay allocation-free; see bench.go for what each
// benchmark covers.
func BenchmarkPacerSend(b *testing.B)  { RunPacerBench(b) }
func BenchmarkAckProcess(b *testing.B) { RunAckBench(b) }
