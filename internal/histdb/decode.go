package histdb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/tuner"
)

// decodeCanonical decodes a payload into v, a fresh *RunRecord or *Progress,
// in one pass if it is laid out exactly as encodeFramed writes it: keys in
// order, omitempty fields absent, no whitespace, no escape, every number and
// time as encoding/json writes its value. Otherwise it leaves v zero and
// reports false. What it accepts decodes reflect.DeepEqual to
// json.Unmarshal's value and re-marshals to the same bytes.
func decodeCanonical(payload []byte, v any) (ok bool) {
	rv := reflect.ValueOf(v).Elem()
	defer func() {
		if r := recover(); r != nil && r != (decline{}) {
			panic(r)
		}
		if !ok {
			rv.SetZero()
		}
	}()
	d := &decoder{b: payload}
	d.decode(rv)
	return d.i == len(d.b)
}

// decline unwinds a decoder or an encoder that meets what the canonical
// layout does not hold.
type decline struct{}

type field struct {
	index     int
	key       string // `"name":`
	omitempty bool
}

// fields lists each struct type a frame holds with the fields encoding/json
// writes, in order: both the decoder and the encoder walk it.
var fields = func() map[reflect.Type][]field {
	m := make(map[reflect.Type][]field)
	for _, v := range []any{RunRecord{}, Progress{}, Spec{}, collector.Stats{}, tuner.Sample{},
		tuner.Result{}, tuner.ContinuousResult{}, tuner.ContinuousEpoch{}, tuner.WarmStart{}} {
		t := reflect.TypeOf(v)
		for i := 0; i < t.NumField(); i++ {
			name, opts, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if name = cmp.Or(name, t.Field(i).Name); name != "-" && t.Field(i).IsExported() {
				m[t] = append(m[t], field{i, `"` + name + `":`, opts == "omitempty"})
			}
		}
	}
	return m
}()

// decoder reads one payload: each method consumes what it reads or declines.
type decoder struct {
	b   []byte
	i   int
	buf [64]byte // a number's or time's canonical form, to compare against
}

// decode reads the value encoding/json writes for v's type into v.
func (d *decoder) decode(v reflect.Value) {
	switch t := v.Type(); t.Kind() {
	case reflect.String:
		v.SetString(string(d.str()))
	case reflect.Int:
		n, err := strconv.Atoi(string(d.digits()))
		must(err == nil)
		v.SetInt(int64(n))
	case reflect.Uint64:
		n, err := strconv.ParseUint(string(d.digits()), 10, 64)
		must(err == nil)
		v.SetUint(n)
	case reflect.Float64:
		v.SetFloat(d.float())
	case reflect.Bool: // only omitempty ones, so never false
		must(d.opt("true"))
		v.SetBool(true)
	case reflect.Struct:
		if p, ok := v.Addr().Interface().(*time.Time); ok {
			d.time(p)
		} else {
			d.object(v)
		}
	default:
		if d.opt("null") {
			return
		}
		switch p := v.Addr().Interface().(type) {
		case *cfgspace.Config:
			d.cfg(p)
		case *[]json.RawMessage:
			*p = d.trace()
		case *map[string]float64:
			*p = d.checkpoint()
		default:
			must(t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice)
			if t.Kind() == reflect.Pointer {
				v.Set(reflect.New(t.Elem()))
				d.decode(v.Elem())
				return
			}
			// Size the slice by counting its separators ("},{" between structs);
			// an element holding one miscounts, and declines. Slices of slices grow.
			n, i := 0, 0
			if rest := d.b[d.i:]; bytes.HasPrefix(rest, []byte("[]")) {
				v.Set(reflect.MakeSlice(t, 0, 0)) // non-nil, as encoding/json decodes []
			} else if k := t.Elem().Kind(); k != reflect.Slice {
				sep, end := []byte(","), []byte("]")
				if k == reflect.Struct {
					sep, end = []byte("},{"), []byte("}]")
				}
				n = bytes.Count(rest[:max(bytes.Index(rest, end), 0)], sep) + 1
			}
			v.Grow(n)
			v.SetLen(n)
			d.seq('[', ']', func() {
				if i == n {
					must(t.Elem().Kind() == reflect.Slice)
					v.Grow(1)
					v.SetLen(i + 1)
					n++
				}
				d.decode(v.Index(i))
				i++
			})
			must(i == n)
		}
	}
}

// object reads a struct's fields in order, an omitempty one absent if empty.
func (d *decoder) object(v reflect.Value) {
	fs, ok := fields[v.Type()]
	must(ok && d.eat('{'))
	first := true
	for _, f := range fs {
		if at := d.i; !(first || d.eat(',')) || !d.opt(f.key) {
			d.i = at
			must(f.omitempty)
			continue
		}
		start := d.i
		d.decode(v.Field(f.index))
		switch string(d.b[start:d.i]) {
		case `""`, "0", "-0", "false", "[]", "null": // what omitempty omits
			must(!f.omitempty)
		}
		first = false
	}
	must(d.eat('}'))
}

// must declines unless ok.
func must(ok bool) {
	if !ok {
		panic(decline{})
	}
}

// opt consumes s if the payload continues with it.
func (d *decoder) opt(s string) bool {
	if len(d.b)-d.i < len(s) || d.b[d.i] != s[0] || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// eat consumes c if the payload continues with it.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// seq reads open, elements separated by commas, and close.
func (d *decoder) seq(open, close byte, elem func()) {
	must(d.eat(open))
	for n := 0; !d.eat(close); n++ {
		must(n == 0 || d.eat(','))
		elem()
	}
}

// str reads a string that needs no escape and returns its bytes.
func (d *decoder) str() []byte {
	start := d.i
	d.i = scanString(d.b, d.i)
	must(d.i > 0)
	return d.b[start+1 : d.i-1]
}

// plain marks the bytes encoding/json writes in a string as they are:
// printable ASCII but ", \, <, > and &.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// plainLen returns how many bytes s starts with that a string holds with no
// escape: plain bytes, and valid UTF-8 but U+2028 and U+2029.
func plainLen[T string | []byte](s T) int {
	i := 0
	for i < len(s) {
		if plain[s[i]] {
			i++
			continue
		}
		if s[i] < utf8.RuneSelf {
			break
		}
		var rb [utf8.UTFMax]byte
		r, n := utf8.DecodeRune(rb[:copy(rb[:], s[i:])])
		if n < 2 || r == '\u2028' || r == '\u2029' {
			break
		}
		i += n
	}
	return i
}

// digits reads an integer as encoding/json writes one: no leading 0, no -0.
func (d *decoder) digits() []byte {
	start := d.i
	d.eat('-')
	n := d.i
	d.i = scanDigits(d.b, n)
	must(d.i > n && (d.b[n] != '0' || d.i == n+1 && n == start))
	return d.b[start:d.i]
}

// float reads a number that is encoding/json's encoding of its value.
func (d *decoder) float() float64 {
	start := d.i
	for d.i < len(d.b) && (d.b[d.i]-'0' < 10 || strings.IndexByte("+-.Ee", d.b[d.i]) >= 0) {
		d.i++
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	must(err == nil && bytes.Equal(appendFloat(d.buf[:0], f), d.b[start:d.i]))
	return f
}

// appendFloat is encoding/json's float64 encoder.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// time reads a time as MarshalJSON writes it, through its UnmarshalJSON.
func (d *decoder) time(t *time.Time) {
	start := d.i
	d.str()
	tok := d.b[start:d.i]
	must(t.UnmarshalJSON(tok) == nil && bytes.Equal(append(t.AppendFormat(append(d.buf[:0], '"'), time.RFC3339Nano), '"'), tok))
}

// cfg reads an array of ints, each as digits reads it, into a Config of
// its own.
func (d *decoder) cfg(c *cfgspace.Config) {
	var buf [16]int
	vals := buf[:0]
	d.seq('[', ']', func() {
		v, err := strconv.Atoi(string(d.digits()))
		must(err == nil)
		vals = append(vals, v)
	})
	*c = append(make(cfgspace.Config, 0, len(vals)), vals...)
}

// trace reads lines, each one scanLine accepts, into one backing array,
// each capacity-clipped so no append runs into the next.
func (d *decoder) trace() []json.RawMessage {
	start := d.i + 1
	ends := make([]int, 0, 64)
	d.seq('[', ']', func() {
		d.i = scanLine(d.b, d.i, 0)
		must(d.i > 0)
		ends = append(ends, d.i-start)
	})
	all := bytes.Clone(d.b[start : d.i-1])
	lines, from := make([]json.RawMessage, len(ends)), 0
	for k, end := range ends {
		lines[k], from = all[from:end:end], end+1
	}
	return lines
}

// scanLine returns the end of the JSON value at b[i:], nested depth deep,
// if it is as compact as json.Marshal writes it — no whitespace, strings
// with no escape, nested at most 64 deep — or -1. The decoder checks trace
// lines with it, and the encoder copies the lines it accepts.
func scanLine(b []byte, i, depth int) int {
	if i >= len(b) || depth > 64 {
		return -1
	}
	switch c := b[i]; c {
	case '{', '[':
		if i++; i < len(b) && b[i] == c+2 { // '}' or ']'
			return i + 1
		}
		for {
			if c == '{' {
				if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				i++
			}
			if i = scanLine(b, i, depth+1); i < 0 || i >= len(b) || b[i] != ',' && b[i] != c+2 {
				return -1
			}
			if i++; b[i-1] != ',' {
				return i
			}
		}
	case '"':
		return scanString(b, i)
	case 't', 'f', 'n':
		for _, lit := range []string{"true", "false", "null"} {
			if lit[0] == c && len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
				return i + len(lit)
			}
		}
		return -1
	}
	// A number: no leading zero, digits after a point and in an exponent.
	if i < len(b) && b[i] == '-' {
		i++
	}
	n := scanDigits(b, i)
	if n == i || b[i] == '0' && n > i+1 {
		return -1
	}
	if n < len(b) && b[n] == '.' {
		if i, n = n+1, scanDigits(b, n+1); n == i {
			return -1
		}
	}
	if n < len(b) && b[n]|0x20 == 'e' {
		if n++; n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		if i, n = n, scanDigits(b, n); n == i {
			return -1
		}
	}
	return n
}

// scanString returns the end of the string b[i:] starts with, if it needs
// no escape, or -1.
func scanString(b []byte, i int) int {
	if i < len(b) && b[i] == '"' {
		if i += 1 + plainLen(b[i+1:]); i < len(b) && b[i] == '"' {
			return i + 1
		}
	}
	return -1
}

// scanDigits returns the end of the digits b[i:] starts with.
func scanDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// checkpoint reads a journal, its keys sorted as encoding/json writes them.
func (d *decoder) checkpoint() map[string]float64 {
	m := make(map[string]float64)
	var prev []byte
	d.seq('{', '}', func() {
		k := d.str()
		must((len(m) == 0 || string(k) > string(prev)) && d.eat(':'))
		m[string(k)], prev = d.float(), k
	})
	must(len(m) > 0) // only an omitempty field holds one
	return m
}
