package histdb

// DecodeCanonical is decodeCanonical, for the tests in package histdb_test.
var DecodeCanonical = decodeCanonical
