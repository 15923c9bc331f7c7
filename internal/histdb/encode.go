package histdb

import (
	"encoding/json"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"time"

	"ceal/internal/cfgspace"
)

// encodeCanonical appends v, a *RunRecord or *Progress, to b as encoding/json
// writes it, in one pass over the fields table, or reports false for what it
// cannot write byte for byte: a string that needs an escape, a NaN or ±Inf,
// a time json refuses, a type outside the table, a trace line scanLine
// refuses. encodeFramed gives those to json.Encoder.
func encodeCanonical(b []byte, v any) (_ []byte, ok bool) {
	defer func() {
		if r := recover(); r != nil && r != (decline{}) {
			panic(r)
		}
	}()
	e := &encoder{b: b}
	e.encode(reflect.ValueOf(v).Elem())
	return e.b, true
}

// encoder appends one payload: each method writes its value or declines.
type encoder struct{ b []byte }

// encode appends what encoding/json writes for v, which is addressable.
func (e *encoder) encode(v reflect.Value) {
	switch t := v.Type(); t.Kind() {
	case reflect.String:
		e.str(v.String())
	case reflect.Int:
		e.b = strconv.AppendInt(e.b, v.Int(), 10)
	case reflect.Uint64:
		e.b = strconv.AppendUint(e.b, v.Uint(), 10)
	case reflect.Float64:
		e.float(v.Float())
	case reflect.Bool:
		e.b = strconv.AppendBool(e.b, v.Bool())
	case reflect.Struct:
		if p, ok := v.Addr().Interface().(*time.Time); ok {
			_, offset := p.Zone() // MarshalJSON refuses a year or zone RFC 3339 cannot write
			must(p.Year() >= 0 && p.Year() <= 9999 && offset > -24*3600 && offset < 24*3600)
			e.b = append(p.AppendFormat(append(e.b, '"'), time.RFC3339Nano), '"')
		} else {
			e.object(v)
		}
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if v.IsNil() {
			e.b = append(e.b, "null"...)
			return
		}
		switch p := v.Addr().Interface().(type) {
		case *cfgspace.Config:
			e.seq('[', ']', len(*p), func(i int) { e.b = strconv.AppendInt(e.b, int64((*p)[i]), 10) })
		case *[]json.RawMessage:
			e.seq('[', ']', len(*p), func(i int) { // each line as it is, once scanLine accepts all of it
				must(scanLine((*p)[i], 0, 0) == len((*p)[i]))
				e.b = append(e.b, (*p)[i]...)
			})
		case *map[string]float64:
			keys := slices.Sorted(maps.Keys(*p)) // as encoding/json orders them
			e.seq('{', '}', len(keys), func(i int) {
				e.str(keys[i])
				e.b = append(e.b, ':')
				e.float((*p)[keys[i]])
			})
		default:
			if t.Kind() == reflect.Pointer {
				e.encode(v.Elem())
				return
			}
			must(t.Kind() == reflect.Slice && t.Elem().Kind() != reflect.Uint8) // json writes []byte as base64
			e.seq('[', ']', v.Len(), func(i int) { e.encode(v.Index(i)) })
		}
	default:
		must(false)
	}
}

// object appends a struct's fields in order, an omitempty one left out when
// encoding/json omits it.
func (e *encoder) object(v reflect.Value) {
	fs, ok := fields[v.Type()]
	must(ok)
	e.b = append(e.b, '{')
	for _, f := range fs {
		if fv := v.Field(f.index); !f.omitempty || !empty(fv) {
			if e.b[len(e.b)-1] != '{' { // no value ends in one
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, f.key...)
			e.encode(fv)
		}
	}
	e.b = append(e.b, '}')
}

// empty is encoding/json's test for what omitempty omits.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.String:
		return v.Len() == 0
	}
	return v.Kind() != reflect.Struct && v.IsZero()
}

// seq appends open, n elements separated by commas, and close.
func (e *encoder) seq(open, close byte, n int, elem func(i int)) {
	e.b = append(e.b, open)
	for i := 0; i < n; i++ {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(i)
	}
	e.b = append(e.b, close)
}

// str appends a string that needs no escape.
func (e *encoder) str(s string) {
	must(plainLen(s) == len(s))
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// float appends a finite float as encoding/json does.
func (e *encoder) float(f float64) {
	must(!math.IsNaN(f) && !math.IsInf(f, 0))
	e.b = appendFloat(e.b, f)
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
