package relation

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendJSONString appends s as encoding/json writes a string with HTML
// escaping on: " \ \b \f \n \r \t as short escapes; other controls,
// < > &, U+2028, U+2029 and each byte of invalid UTF-8 (as U+FFFD) as
// \uXXXX escapes. The wire codec and the checkpoint encoder write
// every string through it.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendJSONText(append(dst, '"'), s), '"')
}

// AppendJSONCell appends v's wire cell (EncodeValue) as a JSON string:
// byte for byte AppendJSONString(dst, EncodeValue(v)), without building
// the cell. An integer's digits need no escaping; a name's quotes are
// doubled as they are escaped.
func AppendJSONCell(dst []byte, v Value) []byte {
	if v.kind == KindInt {
		return append(strconv.AppendInt(append(dst, '"'), v.i, 10), '"')
	}
	dst = append(dst, `"'`...)
	s := v.s
	for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
		dst = append(appendJSONText(dst, s[:i]), `''`...)
		s = s[i+1:]
	}
	return append(appendJSONText(dst, s), `'"`...)
}

// appendJSONText appends the escaped body of s, without its quotes.
func appendJSONText(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if r >= 0x20 && !strings.ContainsRune("\"\\<>&\xe2\x80\xa8\xe2\x80\xa9", r) && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		if j := strings.IndexRune("\"\\\b\f\n\r\t", r); j >= 0 {
			dst = append(dst, '\\', "\"\\bfnrt"[j])
		} else {
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
