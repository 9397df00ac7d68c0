package client

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"prefcqa"
	"prefcqa/internal/relation"
)

// AppendJSON appends to dst what a json.Encoder with its defaults
// writes for v: HTML-safe string escaping, sorted map keys and the
// trailing newline included. The read shapes (QueryRequest,
// CountRequest, QueryResponse, QueryOpenResponse, CountResponse) and
// the write shapes (InsertRequest, DeleteRequest, PreferRequest,
// InsertResponse, DeleteResponse, VersionResponse) are written without
// reflection; any other v goes to encoding/json.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case QueryRequest:
		dst = appendRequest(dst, v.DB, v.Family, `,"query":`, v.Query, v.ReadOptions)
	case CountRequest:
		dst = appendRequest(dst, v.DB, v.Family, `,"relation":`, v.Relation, v.ReadOptions)
	case QueryResponse:
		dst = relation.AppendJSONString(append(dst, `{"answer":`...), v.Answer)
		dst = strconv.AppendUint(append(dst, `,"version":`...), v.Version, 10)
		if len(v.Versions) > 0 {
			dst = appendMap(append(dst, `,"versions":`...), v.Versions, func(dst []byte, n uint64) []byte {
				return strconv.AppendUint(dst, n, 10)
			})
		}
	case QueryOpenResponse:
		dst = appendList(append(dst, `{"bindings":`...), v.Bindings, func(dst []byte, b map[string]string) []byte {
			return appendMap(dst, b, relation.AppendJSONString)
		})
		dst = strconv.AppendUint(append(dst, `,"version":`...), v.Version, 10)
	case CountResponse:
		dst = strconv.AppendInt(append(dst, `{"count":`...), v.Count, 10)
		dst = strconv.AppendUint(append(dst, `,"version":`...), v.Version, 10)
	case InsertRequest:
		dst = appendList(appendTarget(dst, v.DB, v.Relation, "rows"), v.Rows, func(dst []byte, row []string) []byte {
			return appendList(dst, row, relation.AppendJSONString)
		})
	case insertTuples:
		dst = appendTarget(dst, v.db, v.relation, "rows")
		dst = appendList(dst, nonNil(v.rows), func(dst []byte, row prefcqa.Tuple) []byte {
			return appendList(dst, nonNil(row), relation.AppendJSONCell)
		})
	case DeleteRequest:
		dst = appendList(appendTarget(dst, v.DB, v.Relation, "ids"), v.IDs, appendInt)
	case PreferRequest:
		dst = appendList(appendTarget(dst, v.DB, v.Relation, "pairs"), v.Pairs, func(dst []byte, p [2]int) []byte {
			return append(appendInt(append(appendInt(append(dst, '['), p[0]), ','), p[1]), ']')
		})
	case InsertResponse:
		dst = appendList(append(dst, `{"ids":`...), v.IDs, appendInt)
		dst = strconv.AppendUint(append(dst, `,"version":`...), v.Version, 10)
	case DeleteResponse:
		dst = appendInt(append(dst, `{"deleted":`...), v.Deleted)
		dst = strconv.AppendUint(append(dst, `,"version":`...), v.Version, 10)
	case VersionResponse:
		dst = strconv.AppendUint(append(dst, `{"version":`...), v.Version, 10)
	default:
		blob, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		return append(append(dst, blob...), '\n'), nil
	}
	return append(dst, "}\n"...), nil
}

// insertTuples is the body of Client.Insert: an InsertRequest whose
// rows are written straight from the tuples, each cell as EncodeValue
// renders it, with no [][]string in between.
type insertTuples struct {
	db, relation string
	rows         []prefcqa.Tuple
}

// appendTarget opens a write request: its database, its relation and
// the key of the member that follows.
func appendTarget(dst []byte, db, rel, key string) []byte {
	dst = relation.AppendJSONString(append(dst, `{"db":`...), db)
	dst = relation.AppendJSONString(append(dst, `,"relation":`...), rel)
	return append(append(append(dst, `,"`...), key...), `":`...)
}

// appendList appends list as encoding/json writes a slice: null when
// nil, else the elements in order.
func appendList[E any](dst []byte, list []E, appendElem func([]byte, E) []byte) []byte {
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendElem(dst, e)
	}
	return append(dst, ']')
}

// nonNil is list, or an empty list where list is nil: Client.Insert has
// always sent its rows and cells as arrays.
func nonNil[E any](list []E) []E {
	if list == nil {
		return []E{}
	}
	return list
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

func appendRequest(dst []byte, db, family, textKey, text string, o ReadOptions) []byte {
	dst = relation.AppendJSONString(append(dst, `{"db":`...), db)
	dst = relation.AppendJSONString(append(dst, `,"family":`...), family)
	dst = relation.AppendJSONString(append(dst, textKey...), text)
	if o.MinVersion != 0 {
		dst = strconv.AppendUint(append(dst, `,"min_version":`...), o.MinVersion, 10)
	}
	if o.TimeoutMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), o.TimeoutMS, 10)
	}
	return dst
}

// appendMap appends m as encoding/json writes a map: null when nil,
// else the members in byte order of their keys.
func appendMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	var buf [8]string // a few keys sort without allocating
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(append(relation.AppendJSONString(dst, k), ':'), m[k])
	}
	return append(dst, '}')
}

// DecodeJSON decodes b into v as a json.Decoder reading b would: the
// same value or the same error. With strict that decoder disallows
// unknown fields, as prefserve decodes every request; without, it
// tolerates them, as this client decodes every reply, so a field a
// newer server adds to a reply does not break it.
//
// The read and write shapes AppendJSON writes without reflection are
// read without it too, straight into *v, when the body is canonical:
// exact-case known keys, strings with standard escapes, integers in
// range, arrays of the exact shape, nothing after the object but
// whitespace. Every other body (a case-folded or unknown key, null, a
// float, a pair of three, trailing data, invalid UTF-8, a surrogate
// escape, a slice member v already holds), and every body of another
// type, goes whole to that json.Decoder, which writes again every
// member the body names: what is accepted, the value and every error
// text stay encoding/json's.
func DecodeJSON(b []byte, v any, strict bool) error {
	s := wireScan{b: b}
	done := false
	switch v := v.(type) {
	case *QueryRequest:
		done = v != nil && s.request("query", &v.DB, &v.Family, &v.Query, &v.ReadOptions)
	case *CountRequest:
		done = v != nil && s.request("relation", &v.DB, &v.Family, &v.Relation, &v.ReadOptions)
	case *QueryResponse:
		for key, more := s.object(v != nil); more; key, more = s.next() {
			switch string(key) {
			case "answer":
				v.Answer = s.str()
			case "version":
				v.Version = s.uint()
			case "versions": // merged into a map v holds, as by encoding/json
				if v.Versions == nil {
					v.Versions = map[string]uint64{}
				}
				for name, more := s.object(true); more; name, more = s.next() {
					v.Versions[string(name)] = s.uint()
				}
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *QueryOpenResponse:
		// encoding/json decodes an array into the maps of a slice v
		// already holds, a repeated member's too: declined.
		for key, more := s.object(v != nil && v.Bindings == nil); more; key, more = s.next() {
			switch {
			case string(key) == "version":
				v.Version = s.uint()
			case string(key) == "bindings" && v.Bindings == nil:
				v.Bindings = scanList(&s, func() map[string]string {
					m := map[string]string{}
					for name, more := s.object(true); more; name, more = s.next() {
						m[string(name)] = s.str()
					}
					return m
				})
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *CountResponse:
		for key, more := s.object(v != nil); more; key, more = s.next() {
			switch string(key) {
			case "count":
				v.Count = s.int()
			case "version":
				v.Version = s.uint()
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *InsertRequest:
		// Like bindings above, a rows member v already holds is declined.
		for key, more := s.object(v != nil && v.Rows == nil); more; key, more = s.next() {
			switch {
			case s.target(key, &v.DB, &v.Relation):
			case string(key) == "rows" && v.Rows == nil:
				v.Rows = s.rows()
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *DeleteRequest:
		for key, more := s.object(v != nil && v.IDs == nil); more; key, more = s.next() {
			switch {
			case s.target(key, &v.DB, &v.Relation):
			case string(key) == "ids" && v.IDs == nil:
				v.IDs = scanList(&s, s.goInt)
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *PreferRequest:
		for key, more := s.object(v != nil && v.Pairs == nil); more; key, more = s.next() {
			switch {
			case s.target(key, &v.DB, &v.Relation):
			case string(key) == "pairs" && v.Pairs == nil:
				v.Pairs = scanList(&s, func() (p [2]int) {
					s.bad = s.bad || !s.token('[')
					p[0] = s.goInt()
					s.bad = s.bad || !s.token(',')
					p[1] = s.goInt()
					s.bad = s.bad || !s.token(']')
					return p
				})
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *InsertResponse:
		for key, more := s.object(v != nil && v.IDs == nil); more; key, more = s.next() {
			switch {
			case string(key) == "ids" && v.IDs == nil:
				v.IDs = scanList(&s, s.goInt)
			case string(key) == "version":
				v.Version = s.uint()
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *DeleteResponse:
		for key, more := s.object(v != nil); more; key, more = s.next() {
			switch string(key) {
			case "deleted":
				v.Deleted = s.goInt()
			case "version":
				v.Version = s.uint()
			default:
				s.bad = true
			}
		}
		done = s.done()
	case *VersionResponse:
		for key, more := s.object(v != nil); more; key, more = s.next() {
			switch string(key) {
			case "version":
				v.Version = s.uint()
			default:
				s.bad = true
			}
		}
		done = s.done()
	}
	if done {
		return nil
	}
	return decodeStream(bytes.NewReader(b), v, strict)
}

// ReadJSON reads r whole into buf and decodes it into v as DecodeJSON
// does. If the reading fails (a body over its size limit, a peer gone),
// the bytes already read and the rest of r are streamed to DecodeJSON's
// json.Decoder instead, so the value or the error is the one it gives.
func ReadJSON(buf *bytes.Buffer, r io.Reader, v any, strict bool) error {
	if _, err := buf.ReadFrom(r); err != nil {
		return decodeStream(io.MultiReader(bytes.NewReader(buf.Bytes()), r), v, strict)
	}
	return DecodeJSON(buf.Bytes(), v, strict)
}

// decodeStream decodes one value from r with json.Decoder, disallowing
// unknown fields when strict.
func decodeStream(r io.Reader, v any, strict bool) error {
	dec := json.NewDecoder(r)
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// wireScan reads one body for DecodeJSON. It turns bad on input it
// does not take, malformed or not plain, and then takes nothing more.
type wireScan struct {
	b   []byte
	i   int
	bad bool
}

func (s *wireScan) space() {
	for s.i < len(s.b) && strings.IndexByte(" \t\n\r", s.b[s.i]) >= 0 {
		s.i++
	}
}

// token consumes c after optional whitespace.
func (s *wireScan) token(c byte) bool {
	s.space()
	ok := !s.bad && s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// done reports whether the scan took all of b.
func (s *wireScan) done() bool {
	s.space()
	return !s.bad && s.i == len(s.b)
}

// object opens the object under the scan (turning bad unless take) and
// returns its first key, next the following ones: ASCII without
// escapes, with the scan left before the value. Both report false at
// the closing brace or once the scan is bad.
func (s *wireScan) object(take bool) ([]byte, bool) {
	s.bad = s.bad || !take || !s.token('{')
	if s.token('}') {
		return nil, false
	}
	return s.key()
}

func (s *wireScan) next() ([]byte, bool) {
	if s.token(',') {
		return s.key()
	}
	s.bad = s.bad || !s.token('}')
	return nil, false
}

func (s *wireScan) key() ([]byte, bool) {
	if !s.token('"') {
		s.bad = true
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] < utf8.RuneSelf && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		s.bad = true
		return nil, false
	}
	key := s.b[start:s.i]
	s.i++
	s.bad = !s.token(':')
	return key, !s.bad
}

// request reads a QueryRequest or CountRequest, whose third string
// member is named textKey.
func (s *wireScan) request(textKey string, db, family, text *string, o *ReadOptions) bool {
	for key, more := s.object(true); more; key, more = s.next() {
		switch string(key) {
		case "db":
			*db = s.str()
		case "family":
			*family = s.str()
		case textKey:
			*text = s.str()
		case "min_version":
			o.MinVersion = s.uint()
		case "timeout_ms":
			o.TimeoutMS = s.int()
		default:
			s.bad = true
		}
	}
	return s.done()
}

// target reads the member key names when it is "db" or "relation",
// the members every write request opens with.
func (s *wireScan) target(key []byte, db, rel *string) bool {
	switch string(key) {
	case "db":
		*db = s.str()
	case "relation":
		*rel = s.str()
	default:
		return false
	}
	return true
}

// array reads an array, calling elem for each element.
func (s *wireScan) array(elem func()) {
	s.bad = s.bad || !s.token('[')
	for i := 0; !s.bad && !s.token(']'); i++ {
		s.bad = i > 0 && !s.token(',')
		elem()
	}
}

// scanList reads an array, each element with elem, into a fresh
// non-nil slice, as encoding/json decodes into a nil one.
func scanList[E any](s *wireScan, elem func() E) []E {
	list := []E{}
	s.array(func() { list = append(list, elem()) })
	return list
}

// rows reads an insert's rows: an array of arrays of strings. The
// cells of all rows share one backing array, each row capped at its
// own end, so a row holds what encoding/json gives it and appending
// to one cannot write into the next.
func (s *wireScan) rows() [][]string {
	cells := []string{}
	var ends []int
	s.array(func() {
		s.array(func() { cells = append(cells, s.str()) })
		ends = append(ends, len(cells))
	})
	rows := make([][]string, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = cells[start:end:end]
		start = end
	}
	return rows
}

// str reads a string of valid UTF-8 whose escapes are not surrogate
// halves (encoding/json pairs those up or replaces them).
func (s *wireScan) str() string {
	s.bad = s.bad || !s.token('"')
	var out []byte // nil until the first escape
	for start := s.i; !s.bad && s.i < len(s.b); {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			if out == nil {
				return string(s.b[start : s.i-1])
			}
			return string(append(out, s.b[start:s.i-1]...))
		case c == '\\':
			out = utf8.AppendRune(append(out, s.b[start:s.i]...), s.escape())
			start = s.i
		case c < utf8.RuneSelf:
			s.bad = c < 0x20
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			s.bad = r == utf8.RuneError && size == 1
			s.i += size
		}
	}
	s.bad = true
	return ""
}

// escape reads the escape sequence under the scan.
func (s *wireScan) escape() rune {
	if s.i+1 < len(s.b) {
		if j := strings.IndexByte(`"\/bfnrt`, s.b[s.i+1]); j >= 0 {
			s.i += 2
			return rune("\"\\/\b\f\n\r\t"[j])
		}
	}
	if s.i+6 > len(s.b) || s.b[s.i+1] != 'u' {
		s.bad = true
		return 0
	}
	n, err := strconv.ParseUint(string(s.b[s.i+2:s.i+6]), 16, 32)
	s.i += 6
	s.bad = err != nil || 0xD800 <= n && n < 0xE000
	return rune(n)
}

// integer returns the digits under the scan, after an optional minus;
// with a leading zero it returns nil, which strconv refuses. A fraction
// or exponent after them is refused by whatever reads next.
func (s *wireScan) integer() []byte {
	s.space()
	start := s.i
	for s.i < len(s.b) && (s.b[s.i] == '-' && s.i == start || '0' <= s.b[s.i] && s.b[s.i] <= '9') {
		s.i++
	}
	if d := bytes.TrimPrefix(s.b[start:s.i], []byte("-")); len(d) > 1 && d[0] == '0' {
		return nil
	}
	return s.b[start:s.i]
}

func (s *wireScan) uint() uint64 {
	n, err := strconv.ParseUint(string(s.integer()), 10, 64)
	s.bad = s.bad || err != nil
	return n
}

func (s *wireScan) int() int64 {
	n, err := strconv.ParseInt(string(s.integer()), 10, 64)
	s.bad = s.bad || err != nil
	return n
}

// goInt reads an int of the platform's size.
func (s *wireScan) goInt() int {
	n, err := strconv.ParseInt(string(s.integer()), 10, strconv.IntSize)
	s.bad = s.bad || err != nil
	return int(n)
}
