package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// fieldNames maps each kind's A–D payload slots to the JSONL field
// names of the documented schema (README "Tracing & telemetry"). An
// empty name means the slot is unused for that kind.
var fieldNames = [numKinds][4]string{
	KindMIDecision:    {"target_mbps", "measured_mbps", "utility", "base_rate_mbps"},
	KindRateChange:    {"rate_mbps", "prev_mbps", "gradient", "amp"},
	KindUtilitySample: {"utility", "rtt_grad", "rtt_dev", "loss_rate"},
	KindPacketDrop:    {"size", "queue_bytes", "", ""},
	KindQueueDepth:    {"queue_bytes", "queue_delay", "link_bps", ""},
	KindRTTSample:     {"rtt", "srtt", "acked_bytes", "inflight"},
	KindModeSwitch:    {"value", "", "", ""},
	KindFault:         {"active", "value", "", ""},
}

// kindHasSeq marks the kinds whose Seq field is meaningful (an MI id
// or a packet sequence number).
var kindHasSeq = [numKinds]bool{
	KindMIDecision:    true,
	KindUtilitySample: true,
	KindPacketDrop:    true,
	KindRTTSample:     true,
}

// WriteJSONL writes events as one JSON object per line, using
// kind-specific field names, e.g.
//
//	{"t":12.031,"flow":1,"kind":"rtt","seq":50122,"rtt":0.0312,"srtt":0.0308,"acked_bytes":75183000,"inflight":187500}
//
// Floats are formatted with full round-trip precision so a reduced
// timeline from the file is bit-identical to one reduced in process.
func WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	for _, ev := range evs {
		buf = buf[:0]
		buf = append(buf, `{"t":`...)
		buf = strconv.AppendFloat(buf, ev.T, 'g', -1, 64)
		buf = append(buf, `,"flow":`...)
		buf = strconv.AppendInt(buf, int64(ev.Flow), 10)
		buf = append(buf, `,"kind":"`...)
		buf = append(buf, ev.Kind.String()...)
		buf = append(buf, '"')
		if int(ev.Kind) < len(kindHasSeq) && kindHasSeq[ev.Kind] {
			buf = append(buf, `,"seq":`...)
			buf = strconv.AppendInt(buf, ev.Seq, 10)
		}
		if int(ev.Kind) < len(fieldNames) {
			vals := [4]float64{ev.A, ev.B, ev.C, ev.D}
			for i, name := range fieldNames[ev.Kind] {
				if name == "" {
					continue
				}
				buf = append(buf, ',', '"')
				buf = append(buf, name...)
				buf = append(buf, `":`...)
				buf = appendJSONFloat(buf, vals[i])
			}
		}
		if ev.Note != "" {
			buf = append(buf, `,"note":`...)
			q, err := json.Marshal(ev.Note)
			if err != nil {
				return err
			}
			buf = append(buf, q...)
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendJSONFloat formats a float as valid JSON (NaN and infinities
// are not representable in JSON; they become null).
func appendJSONFloat(buf []byte, v float64) []byte {
	if v != v || v > 1.797e308 || v < -1.797e308 {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// ReadJSONL parses a JSONL trace written by WriteJSONL back into
// events, so exporters, reducers, and external tools can round-trip.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		var ev Event
		var kindName string
		if err := unmarshalField(m, "kind", &kindName); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, ok := kindFromString(kindName)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, kindName)
		}
		ev.Kind = kind
		if err := unmarshalField(m, "t", &ev.T); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		var flow int64
		if err := unmarshalField(m, "flow", &flow); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ev.Flow = int32(flow)
		if kindHasSeq[kind] {
			_ = unmarshalField(m, "seq", &ev.Seq)
		}
		slots := [4]*float64{&ev.A, &ev.B, &ev.C, &ev.D}
		for i, name := range fieldNames[kind] {
			if name == "" {
				continue
			}
			if raw, ok := m[name]; ok && string(raw) != "null" {
				if err := json.Unmarshal(raw, slots[i]); err != nil {
					return nil, fmt.Errorf("trace: line %d: field %s: %w", line, name, err)
				}
			}
		}
		_ = unmarshalField(m, "note", &ev.Note)
		out = append(out, ev)
	}
	return out, sc.Err()
}

func unmarshalField(m map[string]json.RawMessage, name string, dst any) error {
	raw, ok := m[name]
	if !ok {
		return nil
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("field %s: %w", name, err)
	}
	return nil
}

func kindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), true
		}
	}
	return 0, false
}
