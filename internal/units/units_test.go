package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{805 * MB, "805 MB"},
		{500 * MB, "500 MB"},
		{1 * GB, "1 GB"},
		{47 * GB, "47 GB"},
		{128 * GB, "128 GB"},
		{0, "0 B"},
		{512, "512 B"},
		{1.5 * TB, "1.5 TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytesIEC(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512 * KiB, "512 KiB"},
		{192 * MiB, "192 MiB"},
		{128 * GiB, "128 GiB"},
		{1 * KiB, "1 KiB"},
		{100, "100 B"},
	}
	for _, c := range cases {
		if got := c.in.IEC(); got != c.want {
			t.Errorf("Bytes(%v).IEC() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRateFlops(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{17 * TeraOps, "17 TFlop/s"},
		{2.3 * PetaOps, "2.3 PFlop/s"},
		{3.1 * TeraOps, "3.1 TFlop/s"},
		{0, "0 Flop/s"},
	}
	for _, c := range cases {
		if got := c.in.Flops(); got != c.want {
			t.Errorf("Rate(%v).Flops() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestByteRateString(t *testing.T) {
	if got := (197 * GBps).String(); got != "197 GB/s" {
		t.Errorf("got %q", got)
	}
	if got := (3.35 * TBps).String(); got != "3.35 TB/s" {
		t.Errorf("got %q", got)
	}
}

func TestFrequencyString(t *testing.T) {
	if got := (1.6 * GHz).String(); got != "1.6 GHz" {
		t.Errorf("got %q", got)
	}
	if got := (1.2 * GHz).String(); got != "1.2 GHz" {
		t.Errorf("got %q", got)
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{1.5, "1.5 s"},
		{2e-3, "2 ms"},
		{625e-12, "625 ps"},
		{3e-6, "3 us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestTimeToMove(t *testing.T) {
	tt := TimeToMove(500*MB, 50*GBps)
	if math.Abs(float64(tt)-0.01) > 1e-12 {
		t.Errorf("500MB at 50GB/s = %v, want 10ms", tt)
	}
	if !math.IsInf(float64(TimeToMove(1, 0)), 1) {
		t.Error("zero bandwidth should give +Inf time")
	}
}

func TestTimeToCompute(t *testing.T) {
	tt := TimeToCompute(17e12, 17*TeraOps)
	if math.Abs(float64(tt)-1) > 1e-9 {
		t.Errorf("got %v, want 1s", tt)
	}
	if !math.IsInf(float64(TimeToCompute(1, 0)), 1) {
		t.Error("zero rate should give +Inf time")
	}
}

func TestRateOfAndBandwidthOf(t *testing.T) {
	if r := RateOf(100, 2); r != 50 {
		t.Errorf("RateOf = %v", r)
	}
	if r := RateOf(100, 0); r != 0 {
		t.Errorf("RateOf zero time = %v", r)
	}
	if b := BandwidthOf(1*GB, 1); b != ByteRate(1*GB) {
		t.Errorf("BandwidthOf = %v", b)
	}
	if b := BandwidthOf(1*GB, 0); b != 0 {
		t.Errorf("BandwidthOf zero time = %v", b)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"805 MB", 805 * MB},
		{"512KiB", 512 * KiB},
		{"47GB", 47 * GB},
		{"1.5 GiB", 1.5 * GiB},
		{"64 B", 64},
		{"192 MiB", 192 * MiB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseBytes(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
	for _, bad := range []string{"", "MB", "12 XB", "12 florps"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
}

// Property: formatting then parsing a byte quantity is the identity within
// formatting precision.
func TestBytesFormatParseRoundTrip(t *testing.T) {
	f := func(mant uint16, exp uint8) bool {
		v := Bytes(float64(mant%9999+1) * math.Pow(10, float64(exp%10)))
		s := v.String()
		back, err := ParseBytes(s)
		if err != nil {
			return false
		}
		rel := math.Abs(float64(back-v)) / float64(v)
		return rel < 0.01 // 3 significant digits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: TimeToMove and BandwidthOf are inverse operations.
func TestMoveBandwidthInverse(t *testing.T) {
	f := func(nRaw, rRaw uint32) bool {
		n := Bytes(nRaw%1000000 + 1)
		r := ByteRate(rRaw%1000000 + 1)
		tt := TimeToMove(n, r)
		back := BandwidthOf(n, tt)
		return math.Abs(float64(back-r))/float64(r) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
