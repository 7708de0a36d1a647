package workload

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadTrace feeds arbitrary text to the trace parser, which must never
// panic. Any input it accepts must survive a round trip: rendering the
// records with WriteTrace and parsing them again gives the same records,
// and every rendered field holds the number the input held, so no column
// is narrowed (tenant 65537 read as 1) or reinterpreted (wan 2 read as 1).
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# header\n\n10 1 1 1 7 0 0 0\n")
	f.Add("0 65537 257 1 42 0 0 0\n")
	f.Add("0 1 1 1 42 0 2 0\r\n")
	f.Add("18446744073709551615 65535 255 4 18446744073709551615 4294967295 1 255\n")
	f.Add("100 1 1 1 0 0 0 0\n50 1 1 1 0 0 0 0\n")
	f.Add("1 2 3\n")

	f.Fuzz(func(t *testing.T, in string) {
		records, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			t.Skip() // malformed input: rejection is the correct outcome
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, records); err != nil {
			t.Fatal(err)
		}
		rendered := buf.String()
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("accepted trace renders unparseable: %v\ninput: %q\nrendered:\n%s", err, in, rendered)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed the record count: %d -> %d", len(records), len(again))
		}
		for i := range records {
			if again[i] != records[i] {
				t.Fatalf("record %d changed in the round trip: %+v -> %+v", i, records[i], again[i])
			}
		}
		got, want := dataLines(rendered), dataLines(in)
		if len(got) != len(want) {
			t.Fatalf("%d data lines rendered from %d", len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				w, _ := strconv.ParseUint(want[i][j], 10, 64)
				if g, _ := strconv.ParseUint(got[i][j], 10, 64); g != w {
					t.Fatalf("record %d field %d: input %s read back as %d", i, j+1, want[i][j], g)
				}
			}
		}
	})
}

// dataLines splits trace text into the fields of its non-comment lines.
func dataLines(text string) [][]string {
	var out [][]string
	for _, l := range strings.Split(text, "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, strings.Fields(l))
		}
	}
	return out
}
