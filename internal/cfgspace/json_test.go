package cfgspace

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzConfigJSON: a Config decodes any input to what encoding/json makes of
// it as a plain []int — the same integers, nil for null and empty for [] —
// or both refuse it; decoded whole, as a struct field, or by a direct call.
func FuzzConfigJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[ 1 , -2 ]`, `1e2`, `[1.5]`, `"x"`, `{}`, `[[1]]`,
		`[1234567890123456789]`, `[-9223372036854775808]`, `[9999999999999999999]`,
		`[232,35,1,89,25,1]`, `[-0]`, `[01]`, `[1,]`, `[,1]`, "\t[\n1\r]\n", "[1\v]", `[1]x`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int
		werr := json.Unmarshal(data, &want)
		same := func(how string, got Config, err error) {
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s of %q: error %v, encoding/json's %v", how, data, err, werr)
			}
			if err == nil && ((got == nil) != (want == nil) || !slices.Equal(got, want)) {
				t.Fatalf("%s of %q = %#v, encoding/json's %#v", how, data, got, want)
			}
		}
		var whole, direct Config
		err := json.Unmarshal(data, &whole)
		same("Unmarshal", whole, err)
		err = direct.UnmarshalJSON(data)
		same("UnmarshalJSON", direct, err)

		wrapped := append(append([]byte(`{"cfg":`), data...), '}')
		var wantField struct{ Cfg []int }
		var gotField struct{ Cfg Config }
		werr = json.Unmarshal(wrapped, &wantField)
		want = wantField.Cfg
		err = json.Unmarshal(wrapped, &gotField)
		same("field", gotField.Cfg, err)
	})
}
