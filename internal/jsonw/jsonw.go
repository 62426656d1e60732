// Package jsonw appends indented JSON with strconv, without reflection
// or a re-indent pass. Its output is byte for byte what encoding/json's
// Encoder writes with SetIndent("", indent) and HTML escaping on: the
// same float format, string escaping, empty-container layout and
// trailing newline. The callers own field order and omitempty, so each
// export lists its fields in struct order next to the struct's json
// tags, which encoding/json still uses to read the files back.
package jsonw

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Writer builds one JSON document in memory. Calls must nest as the
// document does: a Key before each object member, Begin/End pairs
// around containers.
type Writer struct {
	buf    []byte
	indent string
	nl     string // "\n" then indent repeated, cut to length per depth
	depth  int
	empty  bool // the innermost open container holds no element yet
	keyed  bool // a key was just written; its value follows on the line
	err    error
}

// writers recycles Writers and their buffers between documents, as
// encoding/json recycles its encode state.
var writers = sync.Pool{New: func() any { return new(Writer) }}

// New returns an empty Writer indenting each level by indent. Finish
// hands it back; it must not be used after that.
func New(indent string) *Writer {
	w := writers.Get().(*Writer)
	nl := w.nl
	if w.indent != indent {
		nl = "\n"
	}
	*w = Writer{buf: w.buf[:0], indent: indent, nl: nl}
	return w
}

// sep starts a value or key: nothing after a key or at top level,
// otherwise a comma after an earlier element and a newline at depth.
func (w *Writer) sep() {
	if w.keyed {
		w.keyed = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline(w.depth)
}

func (w *Writer) newline(depth int) {
	n := 1 + depth*len(w.indent)
	if n > len(w.nl) {
		w.nl = "\n" + strings.Repeat(w.indent, 2*depth)
	}
	w.buf = append(w.buf, w.nl[:n]...)
}

func (w *Writer) open(c byte) {
	w.sep()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends a container; an empty one stays on its line as {} or [].
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline(w.depth)
	}
	w.empty = false
	w.buf = append(w.buf, c)
}

// BeginObject, EndObject, BeginArray and EndArray open and close a
// container in the current value position.
func (w *Writer) BeginObject() { w.open('{') }
func (w *Writer) EndObject()   { w.close('}') }
func (w *Writer) BeginArray()  { w.open('[') }
func (w *Writer) EndArray()    { w.close(']') }

// Key writes an object member's name; the next call writes its value.
func (w *Writer) Key(k string) *Writer {
	w.sep()
	w.quote(k)
	w.buf = append(w.buf, ':', ' ')
	w.keyed = true
	return w
}

// String writes s quoted and escaped.
func (w *Writer) String(s string) {
	w.sep()
	w.quote(s)
}

// Int writes i in decimal.
func (w *Writer) Int(i int64) {
	var num [20]byte
	w.sep()
	w.buf = append(w.buf, strconv.AppendInt(num[:0], i, 10)...)
}

// Null writes null, as encoding/json writes a nil slice.
func (w *Writer) Null() {
	w.sep()
	w.buf = append(w.buf, "null"...)
}

// Float writes f as encoding/json does: the shortest form that reads
// back exactly, in exponent form below 1e-6 and from 1e21 up, with
// the exponent unpadded. NaN and ±Inf have no JSON form; the first one
// fails the document in Finish.
func (w *Writer) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("jsonw: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	w.sep()
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var num [32]byte
	b := strconv.AppendFloat(num[:0], f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	w.buf = append(w.buf, b...)
}

// Array writes xs as an array, or null when xs is nil, with elem
// writing each element.
func Array[T any](w *Writer, xs []T, elem func(*Writer, *T)) {
	if xs == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for i := range xs {
		elem(w, &xs[i])
	}
	w.EndArray()
}

// Finish ends the document with a newline, writes it to out in one
// call and releases the Writer. After a NaN or ±Inf it writes nothing
// and returns the error.
func (w *Writer) Finish(out io.Writer) error {
	defer writers.Put(w)
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, '\n')
	_, err := out.Write(w.buf)
	return err
}

// htmlSafe marks the ASCII bytes a string carries through unescaped:
// printable characters other than the quote, the backslash and the
// HTML-sensitive <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hex = "0123456789abcdef"

// quote appends s as encoding/json quotes it with HTML escaping: short
// escapes for the usual control characters, \u00XX for the rest and
// for <, > and &, \u2028 and \u2029 for the JavaScript line
// separators, and \ufffd for each byte of invalid UTF-8. Every append
// is in place, so w.buf's pointer is stored only when it grows.
func (w *Writer) quote(s string) {
	w.buf = append(w.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			w.buf = append(w.buf, s[start:i]...)
			switch b {
			case '\\', '"':
				w.buf = append(w.buf, '\\', b)
			case '\b':
				w.buf = append(w.buf, '\\', 'b')
			case '\f':
				w.buf = append(w.buf, '\\', 'f')
			case '\n':
				w.buf = append(w.buf, '\\', 'n')
			case '\r':
				w.buf = append(w.buf, '\\', 'r')
			case '\t':
				w.buf = append(w.buf, '\\', 't')
			default:
				w.buf = append(w.buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			w.buf = append(w.buf, s[start:i]...)
			w.buf = append(w.buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			w.buf = append(w.buf, s[start:i]...)
			w.buf = append(w.buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.buf = append(w.buf, s[start:]...)
	w.buf = append(w.buf, '"')
}
