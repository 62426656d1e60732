// Package units provides the physical quantities used throughout pvcsim:
// byte sizes, bandwidths, operation rates (flop/s and iop/s), frequencies
// and durations, together with SI/IEC formatting and parsing helpers that
// match the way the paper reports its results (e.g. "17 TFlop/s",
// "197 GB/s", "805 MB").
//
// All quantities are represented as float64 in base units (bytes, bytes
// per second, operations per second, hertz, seconds). Thin named types
// keep call sites self-documenting without the cost of a full dimensional
// analysis system.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bytes is a data size in bytes.
type Bytes float64

// ByteRate is a bandwidth in bytes per second.
type ByteRate float64

// Rate is an operation throughput in operations per second. It covers both
// floating point (Flop/s) and integer (Iop/s) rates; the distinction is
// carried by the caller.
type Rate float64

// Frequency is a clock frequency in hertz.
type Frequency float64

// Seconds is a duration in seconds. The simulator uses float seconds rather
// than time.Duration so that sub-nanosecond events (single clock cycles at
// 1.6 GHz are 0.625 ns) do not lose precision.
type Seconds float64

// Decimal (SI) size constants, used for transfer sizes and rates, matching
// the paper's usage (500 MB messages, GB/s bandwidths).
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// Binary (IEC) size constants, used for cache capacities (512 KiB register
// file, 192 MiB LLC).
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// Rate constants.
const (
	KiloOps Rate = 1e3
	MegaOps Rate = 1e6
	GigaOps Rate = 1e9
	TeraOps Rate = 1e12
	PetaOps Rate = 1e15
)

// Bandwidth constants.
const (
	KBps ByteRate = 1e3
	MBps ByteRate = 1e6
	GBps ByteRate = 1e9
	TBps ByteRate = 1e12
)

// Frequency constants.
const (
	KHz Frequency = 1e3
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// Time constants.
const (
	Nanosecond  Seconds = 1e-9
	Microsecond Seconds = 1e-6
	Millisecond Seconds = 1e-3
)

// siPrefixes are ordered from largest to smallest.
var siPrefixes = []struct {
	factor float64
	symbol string
}{
	{1e18, "E"},
	{1e15, "P"},
	{1e12, "T"},
	{1e9, "G"},
	{1e6, "M"},
	{1e3, "k"},
	{1, ""},
}

// formatSI renders v with an SI prefix and the given unit suffix, keeping
// sigfigs significant digits (the paper mostly reports 2-3).
func formatSI(v float64, unit string, sigfigs int) string {
	if v == 0 {
		return "0 " + unit
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	for _, p := range siPrefixes {
		if v >= p.factor {
			return neg + trimFloat(v/p.factor, sigfigs) + " " + p.symbol + unit
		}
	}
	// Below 1: fall back to milli/micro/nano for durations and tiny rates.
	for _, p := range []struct {
		factor float64
		symbol string
	}{{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}} {
		if v >= p.factor {
			return neg + trimFloat(v/p.factor, sigfigs) + " " + p.symbol + unit
		}
	}
	return neg + strconv.FormatFloat(v, 'g', sigfigs, 64) + " " + unit
}

// trimFloat formats v to sigfigs significant digits with trailing zeros
// removed ("17", "3.35", "0.59").
func trimFloat(v float64, sigfigs int) string {
	if sigfigs <= 0 {
		sigfigs = 3
	}
	s := strconv.FormatFloat(v, 'g', sigfigs, 64)
	// 'g' can emit exponent notation for large values; normalize.
	if strings.ContainsAny(s, "eE") {
		s = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return s
}

// String renders a size in SI units ("805 MB").
func (b Bytes) String() string { return formatSI(float64(b), "B", 3) }

// IEC renders a size in binary units ("512 KiB", "192 MiB").
func (b Bytes) IEC() string {
	v := float64(b)
	switch {
	case v >= float64(GiB):
		return trimFloat(v/float64(GiB), 4) + " GiB"
	case v >= float64(MiB):
		return trimFloat(v/float64(MiB), 4) + " MiB"
	case v >= float64(KiB):
		return trimFloat(v/float64(KiB), 4) + " KiB"
	default:
		return trimFloat(v, 4) + " B"
	}
}

// String renders a bandwidth ("197 GB/s").
func (r ByteRate) String() string { return formatSI(float64(r), "B/s", 3) }

// String renders an operation rate ("17 TFlop/s" style, but unit-neutral:
// "17 Top/s"). Use Flops for the paper's Flop/s spelling.
func (r Rate) String() string { return formatSI(float64(r), "op/s", 3) }

// Flops renders the rate as a floating point throughput ("17 TFlop/s").
func (r Rate) Flops() string { return formatSI(float64(r), "Flop/s", 3) }

// String renders a frequency ("1.6 GHz").
func (f Frequency) String() string { return formatSI(float64(f), "Hz", 3) }

// String renders a duration with an appropriate sub-second prefix.
func (s Seconds) String() string { return formatSI(float64(s), "s", 3) }

// TimeToMove returns the time to move n bytes at rate r.
func TimeToMove(n Bytes, r ByteRate) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(n) / float64(r))
}

// TimeToCompute returns the time to execute n operations at rate r.
func TimeToCompute(n float64, r Rate) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(n / float64(r))
}

// RateOf returns the achieved rate for n operations completed in t.
func RateOf(n float64, t Seconds) Rate {
	if t <= 0 {
		return 0
	}
	return Rate(n / float64(t))
}

// BandwidthOf returns the achieved bandwidth for n bytes moved in t.
func BandwidthOf(n Bytes, t Seconds) ByteRate {
	if t <= 0 {
		return 0
	}
	return ByteRate(float64(n) / float64(t))
}

// ParseBytes parses strings like "805 MB", "512KiB", "47GB", "1.5 GiB".
func ParseBytes(s string) (Bytes, error) {
	v, unit, err := splitNumberUnit(s)
	if err != nil {
		return 0, fmt.Errorf("units: parse bytes %q: %w", s, err)
	}
	mult, ok := byteUnits[unit]
	if !ok {
		return 0, fmt.Errorf("units: parse bytes %q: unknown unit %q", s, unit)
	}
	return Bytes(v * float64(mult)), nil
}

var byteUnits = map[string]Bytes{
	"B": 1, "": 1,
	"kB": KB, "KB": KB, "MB": MB, "GB": GB, "TB": TB,
	"KiB": KiB, "MiB": MiB, "GiB": GiB,
}

var siMultipliers = map[string]float64{
	"": 1, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12, "P": 1e15,
}

func splitNumberUnit(s string) (float64, string, error) {
	s = strings.TrimSpace(s)
	i := 0
	for i < len(s) {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			// Only treat e/E as part of the number when followed by a digit
			// or sign, so "5 EB" does not swallow the exponent marker.
			if c == 'e' || c == 'E' {
				if i+1 >= len(s) {
					break
				}
				n := s[i+1]
				if !(n >= '0' && n <= '9') && n != '-' && n != '+' {
					break
				}
			}
			i++
			continue
		}
		break
	}
	if i == 0 {
		return 0, "", fmt.Errorf("no leading number")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
	if err != nil {
		return 0, "", err
	}
	return v, strings.TrimSpace(s[i:]), nil
}
