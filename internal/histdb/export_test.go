package histdb

// DecodeCanonical and EncodeCanonical are decodeCanonical and
// encodeCanonical, for the tests in package histdb_test.
var (
	DecodeCanonical = decodeCanonical
	EncodeCanonical = encodeCanonical
)
