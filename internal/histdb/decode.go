package histdb

import (
	"bytes"
	"cmp"
	"encoding/json"
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
// in one pass if it is compact JSON laid out as encodeFramed lays it out:
// keys in field order, no whitespace, no escape. Numbers and times may take
// any form JSON and their parsers allow. Otherwise it leaves v zero and
// reports false. What it accepts decodes reflect.DeepEqual to
// json.Unmarshal's value, and it accepts nothing json.Unmarshal refuses.
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
	b []byte
	i int
}

// decode reads a value of v's type into v.
func (d *decoder) decode(v reflect.Value) {
	switch t := v.Type(); t.Kind() {
	case reflect.String:
		v.SetString(string(d.str()))
	case reflect.Int:
		n, err := strconv.Atoi(string(d.number()))
		must(err == nil)
		v.SetInt(int64(n))
	case reflect.Uint64:
		n, err := strconv.ParseUint(string(d.number()), 10, 64)
		must(err == nil)
		v.SetUint(n)
	case reflect.Float64:
		v.SetFloat(d.float())
	case reflect.Bool:
		v.SetBool(d.opt("true"))
		must(v.Bool() || d.opt("false"))
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

// object reads a struct's fields in order, only an omitempty one absent.
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
		d.decode(v.Field(f.index))
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

// number reads a JSON number and returns its bytes: integer fields parse
// them with strconv, which refuses a fraction or an exponent as
// json.Unmarshal does.
func (d *decoder) number() []byte {
	start := d.i
	d.i = scanNumber(d.b, d.i)
	must(d.i > 0)
	return d.b[start:d.i]
}

// float reads a number, parsed as json.Unmarshal parses one.
func (d *decoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	must(err == nil)
	return f
}

// time reads a string time through its UnmarshalJSON, as json.Unmarshal does.
func (d *decoder) time(t *time.Time) {
	start := d.i
	d.str()
	must(t.UnmarshalJSON(d.b[start:d.i]) == nil)
}

// cfg reads an array of ints, each as number reads it, into a Config of
// its own.
func (d *decoder) cfg(c *cfgspace.Config) {
	var buf [16]int
	vals := buf[:0]
	d.seq('[', ']', func() {
		v, err := strconv.Atoi(string(d.number()))
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
	return scanNumber(b, i)
}

// scanNumber returns the end of the JSON number b[i:] starts with — no
// leading zero, digits after a point and in an exponent — or -1.
func scanNumber(b []byte, i int) int {
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

// checkpoint reads a journal; a repeated key keeps its last value, as in
// json.Unmarshal's map.
func (d *decoder) checkpoint() map[string]float64 {
	m := make(map[string]float64)
	d.seq('{', '}', func() {
		k := d.str()
		must(d.eat(':'))
		m[string(k)] = d.float()
	})
	return m
}
