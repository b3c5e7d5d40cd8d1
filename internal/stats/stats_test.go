package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMeterBasics(t *testing.T) {
	var m Meter
	m.Add(100)
	m.Add(50)
	// 150 bytes over 15 cycles at 10 B/cycle fill the window.
	if m.Total() != 150 || m.Utilization(15, 10) != 1 {
		t.Fatalf("total=%d utilization=%v, want 150 and 1", m.Total(), m.Utilization(15, 10))
	}
	m.Reset(1000)
	if m.Total() != 150 {
		t.Fatal("reset must not clear the lifetime total")
	}
	if u := m.Utilization(1010, 10); u != 0 {
		t.Fatalf("utilization %v after reset, want 0: reset must clear the window", u)
	}
}

func TestMeterUtilization(t *testing.T) {
	var m Meter
	m.Reset(0)
	m.Add(500)
	// 500 bytes over 100 cycles at 10 B/cycle = 50%.
	if u := m.Utilization(100, 10); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	if u := m.Utilization(100, 0); u != 0 {
		t.Fatal("zero bandwidth must read 0 utilization")
	}
	if u := m.Utilization(0, 10); u != 0 {
		t.Fatal("zero elapsed must read 0 utilization")
	}
}

// TestPropertyMeterWindowSum: total always equals the sum of windows.
func TestPropertyMeterWindowSum(t *testing.T) {
	f := func(chunks []uint16) bool {
		var m Meter
		var sum uint64
		for i, c := range chunks {
			m.Add(uint64(c))
			sum += uint64(c)
			if i%3 == 0 {
				m.Reset(sim.Time(i))
			}
		}
		return m.Total() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Advance(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d, want 10", c.Value())
	}
}

func TestHitRate(t *testing.T) {
	var h HitRate
	if h.Accesses() != 0 {
		t.Fatal("an empty hit rate has no accesses")
	}
	h.Hits.Advance(3)
	h.Misses.Advance(1)
	if h.Accesses() != 4 {
		t.Fatalf("accesses %d, want 4", h.Accesses())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "B")
	tb.AddRow("x", "1")
	tb.AddRowf("y", 2.5)
	out := tb.String()
	for _, want := range []string{"Title", "A", "B", "x", "y", "2.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows %d, want 2", tb.Rows())
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Fatal("short row dropped")
	}
	tb.AddRow("a", "b", "c", "dropped")
	if strings.Contains(tb.String(), "dropped") {
		t.Fatal("extra cells must be dropped")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatal("empty geomean must be 0")
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Fatal("non-positive entries are ignored")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatal("empty mean must be 0")
	}
}

// TestPropertyGeoMeanBounds: geomean of positive values lies between
// min and max.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, float64(r%1000)+1)
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGeoMeanLeqMean: AM-GM inequality holds.
func TestPropertyGeoMeanLeqMean(t *testing.T) {
	f := func(raw []uint16) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, float64(r%1000)+1)
		}
		if len(vs) == 0 {
			return true
		}
		return GeoMean(vs) <= Mean(vs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(math.NaN()) != "n/a" {
		t.Fatal("NaN must render n/a")
	}
	if FormatFloat(math.Inf(1)) != "n/a" {
		t.Fatal("Inf must render n/a")
	}
	if FormatFloat(1.234) != "1.23" {
		t.Fatalf("got %q", FormatFloat(1.234))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored title", "Name", "Val")
	tb.AddRow("plain", "1.0")
	tb.AddRow("needs,quote", "say \"hi\"")
	csv := tb.CSV()
	want := "Name,Val\nplain,1.0\n\"needs,quote\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}
