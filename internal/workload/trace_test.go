package workload

import (
	"bytes"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

func sampleRecords() []TraceRecord {
	return []TraceRecord{
		{Cycle: 10, Tenant: 1, Class: packet.ClassLatency, Op: packet.KVSGet, Key: 7},
		{Cycle: 10, Tenant: 2, Class: packet.ClassBulk, Op: packet.KVSSet, Key: 9, ValueLen: 512},
		{Cycle: 25, Tenant: 1, Class: packet.ClassLatency, Op: packet.KVSGet, Key: 8, WAN: true, ClientNet: 3},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTraceReadRejectsMalformed(t *testing.T) {
	// The over-wide rows would wrap into valid-looking records (tenant
	// 65537 into tenant 1) if a column were parsed at 64 bits and cast.
	cases := map[string]string{
		"fields":         "1 2 3\n",
		"non-numeric":    "1 2 3 x 5 6 7 8\n",
		"bad op":         "1 2 0 9 5 6 0 0\n",
		"out of order":   "100 1 1 1 0 0 0 0\n50 1 1 1 0 0 0 0\n",
		"wide tenant":    "0 65537 1 1 42 0 0 0\n",
		"wide class":     "0 1 257 1 42 0 0 0\n",
		"wide op":        "0 1 1 257 42 0 0 0\n",
		"wide valueLen":  "0 1 1 1 42 4294967296 0 0\n",
		"wan not a flag": "0 1 1 1 42 0 2 0\n",
		"wide clientNet": "0 1 1 1 42 0 0 256\n",
		"wide, 2nd line": "0 1 1 1 1 0 0 0\n0 65537 1 1 42 0 0 0\n",
	}
	for name, in := range cases {
		want := "line 1"
		if strings.Count(in, "\n") == 2 {
			want = "line 2"
		}
		if _, err := ReadTrace(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want an error naming %s", name, err, want)
		}
	}
	// The widest value of every field still parses.
	got, err := ReadTrace(strings.NewReader("18446744073709551615 65535 255 1 18446744073709551615 4294967295 1 255\n"))
	if err != nil || len(got) != 1 || got[0].Tenant != 65535 || got[0].ValueLen != 4294967295 || !got[0].WAN || got[0].ClientNet != 255 {
		t.Fatalf("max-width record: got %+v err %v", got, err)
	}
}

func TestTraceReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n10 1 1 1 7 0 0 0\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestTraceSourceReplay(t *testing.T) {
	src := NewTraceSource(sampleRecords())
	if src.Remaining() != 3 {
		t.Fatal("remaining wrong")
	}
	if m := src.Poll(9); m != nil {
		t.Error("record replayed early")
	}
	m1 := src.Poll(10)
	m2 := src.Poll(10)
	if m1 == nil || m2 == nil {
		t.Fatal("same-cycle records not both replayed")
	}
	k := m1.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if k.Op != packet.KVSGet || k.Key != 7 || m1.Tenant != 1 {
		t.Errorf("m1 = %+v", k)
	}
	if m2.Pkt.PayloadLen != 512 {
		t.Errorf("SET payload = %d", m2.Pkt.PayloadLen)
	}
	if m := src.Poll(24); m != nil {
		t.Error("future record replayed")
	}
	m3 := src.Poll(30)
	if m3 == nil || !m3.Pkt.Has(packet.LayerTypeESP) || m3.Inner == nil {
		t.Fatalf("WAN record not wrapped: %v", m3)
	}
	if ip := m3.Inner.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ip.Src[1] != 3 {
		t.Errorf("client net = %d", ip.Src[1])
	}
	if src.Remaining() != 0 || src.Poll(100) != nil {
		t.Error("source not exhausted")
	}
}

// TestRecordReplayEquivalence: recording a live generator and replaying the
// trace produces the same packet sequence.
func TestRecordReplayEquivalence(t *testing.T) {
	mk := func() *KVSStream {
		return NewKVSStream(KVSTenantConfig{
			Tenant: 4, Class: packet.ClassLatency,
			RateGbps: 10, FreqHz: 500e6, Poisson: true,
			Keys: 128, GetRatio: 0.8, WANShare: 0.25, ValueBytes: 256,
			ClientNet: 2, Count: 60, Seed: 17,
		})
	}
	records := Record(mk(), 200_000)
	if len(records) != 60 {
		t.Fatalf("recorded %d, want 60", len(records))
	}

	// Round-trip through the text format.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	live := mk()
	replay := NewTraceSource(parsed)
	for now := uint64(0); now < 200_000; now++ {
		for {
			a := live.Poll(now)
			b := replay.Poll(now)
			if (a == nil) != (b == nil) {
				t.Fatalf("cycle %d: live=%v replay=%v", now, a, b)
			}
			if a == nil {
				break
			}
			pa, pb := a.Pkt, b.Pkt
			if a.Inner != nil {
				pa = a.Inner
			}
			if b.Inner != nil {
				pb = b.Inner
			}
			ka := pa.Layer(packet.LayerTypeKVS).(*packet.KVS)
			kb := pb.Layer(packet.LayerTypeKVS).(*packet.KVS)
			if *ka != *kb || a.Tenant != b.Tenant || (a.Inner == nil) != (b.Inner == nil) {
				t.Fatalf("cycle %d: %+v vs %+v", now, ka, kb)
			}
		}
	}
}
