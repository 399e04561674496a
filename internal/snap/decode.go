package snap

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The snap reader is a recursive-descent decoder written for the snap
// schema alone. A snap is ~0.1% live trace words, so its JSON is almost
// entirely base64 'A's (zero bits) inside the buffers' "raw" strings: the
// decoder finds each string's end with one bytes.IndexByte and skips
// aligned runs of 'A' straight into the already-zeroed output, so the
// base64 work follows the live words rather than the buffer capacity.
//
// It accepts and rejects exactly what encoding/json's Unmarshal does
// for *Snap, and yields the same value (nil versus empty slices
// included): escapes and invalid UTF-8 in strings, null members, unknown
// and nested keys, duplicate keys (merged into the existing value),
// case-insensitive key matching, integer range and syntax, and newlines
// inside base64. FuzzSnapDecode holds it to that reference. The one
// difference is the error: a document cut short reports
// io.ErrUnexpectedEOF, non-space bytes after the document ErrTrailingData,
// and syntax errors take precedence over type mismatches, so a caller
// can classify the failure.

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

type decoder struct {
	data  []byte
	pos   int
	depth int
	// err is the first value that does not fit its field. Like
	// encoding/json the decoder skips such a value and reports the
	// mismatch only once the whole document has parsed.
	err error
}

// decode parses one snap document.
func decode(data []byte) (*Snap, error) {
	d := &decoder{data: data}
	s := new(Snap)
	if err := d.ws(); err != nil {
		return nil, err
	}
	if err := d.object(s.field); err != nil {
		return nil, err
	}
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
	if d.pos < len(d.data) {
		return nil, fmt.Errorf("%w at offset %d", ErrTrailingData, d.pos)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ws skips whitespace up to the next token, which must exist.
func (d *decoder) ws() error {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
	if d.pos == len(d.data) {
		return d.eof()
	}
	return nil
}

func (d *decoder) eof() error {
	return fmt.Errorf("document ends at offset %d: %w", d.pos, io.ErrUnexpectedEOF)
}

func (d *decoder) syntax(what string) error {
	if d.pos >= len(d.data) {
		return d.eof()
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.data[d.pos], d.pos, what)
}

// mismatch records that the value at the cursor does not fit a field
// of type want, then skips it.
func (d *decoder) mismatch(want string) error {
	if d.err == nil {
		d.err = fmt.Errorf("cannot decode %s at offset %d into %s", kindOf(d.data[d.pos]), d.pos, want)
	}
	return d.skip()
}

func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.pos)
	}
	d.pos++
	return nil
}

// null consumes a null literal if the cursor is on one.
func (d *decoder) null() (bool, error) {
	if d.data[d.pos] != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.data) {
			return d.eof()
		}
		if d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// object decodes the object at the cursor, handing each member's key to
// field with the cursor on the member's value; field must consume it.
// A null leaves the target as it is; any other value is a mismatch.
func (d *decoder) object(field func(d *decoder, key []byte) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.data[d.pos] != '{' {
		return d.mismatch("object")
	}
	if err := d.push(); err != nil {
		return err
	}
	if err := d.ws(); err != nil {
		return err
	}
	if d.data[d.pos] == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.data[d.pos] != '"' {
			return d.syntax("looking for object key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := d.ws(); err != nil {
			return err
		}
		if d.data[d.pos] != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		if err := d.ws(); err != nil {
			return err
		}
		if err := field(d, key); err != nil {
			return err
		}
		if err := d.ws(); err != nil {
			return err
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
			if err := d.ws(); err != nil {
				return err
			}
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after object member")
		}
	}
}

// array walks the array at the cursor (which must be on '['), calling
// elem with the cursor on each element.
func (d *decoder) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	if err := d.ws(); err != nil {
		return err
	}
	if d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if err := d.ws(); err != nil {
			return err
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
			if err := d.ws(); err != nil {
				return err
			}
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip validates and steps over any value.
func (d *decoder) skip() error {
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.object(func(d *decoder, _ []byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// plainStr returns the contents of the string at the cursor and steps
// past it, provided the string is closed and holds no escapes; control
// bytes are left for the caller to reject.
func (d *decoder) plainStr() ([]byte, bool) {
	start := d.pos + 1
	end := bytes.IndexByte(d.data[start:], '"')
	if end < 0 || bytes.IndexByte(d.data[start:start+end], '\\') >= 0 {
		return nil, false
	}
	d.pos = start + end + 1
	return d.data[start : start+end], true
}

// ctrl returns the index of the first control byte in s, or -1; JSON
// strings may not hold one unescaped.
func ctrl(s []byte) int {
	for i, c := range s {
		if c < ' ' {
			return i
		}
	}
	return -1
}

// str scans the string at the cursor and returns its contents between
// the quotes, and whether they hold escapes.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	start := d.pos + 1
	if raw, ok := d.plainStr(); ok {
		if i := ctrl(raw); i >= 0 {
			d.pos = start + i
			return nil, false, d.syntax("in string literal")
		}
		return raw, false, nil
	}
	// Escapes (or no closing quote): walk the string byte by byte.
	i := start
	for {
		if i == len(d.data) {
			d.pos = i
			return nil, false, d.eof()
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], escaped, nil
		case c == '\\':
			escaped = true
			i++
			if i == len(d.data) {
				d.pos = i
				return nil, false, d.eof()
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i == len(d.data) {
						d.pos = i
						return nil, false, d.eof()
					}
					if !isHex(d.data[i]) {
						d.pos = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.pos = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("in string literal")
		default:
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// key reads an object key, unquoted.
func (d *decoder) key() ([]byte, error) {
	raw, escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	return unquote(raw, escaped), nil
}

// unquote decodes a scanned string's escapes and, as encoding/json
// does, replaces each invalid UTF-8 byte and unpaired surrogate with
// U+FFFD. A plain valid string is returned as is.
func unquote(s []byte, escaped bool) []byte {
	r := 0
	if !escaped {
		for r < len(s) {
			if c := s[r]; c < utf8.RuneSelf {
				r++
				continue
			}
			rr, size := utf8.DecodeRune(s[r:])
			if rr == utf8.RuneError && size == 1 {
				break
			}
			r += size
		}
		if r == len(s) {
			return s
		}
	}
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	b = append(b, s[:r]...)
	for r < len(s) {
		switch c := s[r]; {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r])
			}
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// hex4 reads four hex digits the scanner has already checked.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans a JSON number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	digits := func() error {
		if d.pos == len(d.data) {
			return d.eof()
		}
		if c := d.data[d.pos]; c < '0' || c > '9' {
			return d.syntax("in numeric literal")
		}
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
		return nil
	}
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(d.data) && d.data[d.pos] == '0' {
		d.pos++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.pos], nil
}

// field matches a key to one of a struct's JSON names the way
// encoding/json does: exactly, else under Unicode case folding.
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	folded := foldName(key)
	for _, n := range names {
		if string(folded) == string(foldName([]byte(n))) {
			return n
		}
	}
	return ""
}

// foldName maps every rune to the smallest rune of its case-folding
// orbit (ASCII letters to upper case), so that two names fold equal
// exactly when bytes.EqualFold holds.
func foldName(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// The field decoders leave their target unchanged on null, as
// encoding/json does for non-pointer, non-slice fields.

func decodeString(d *decoder, p *string) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.data[d.pos] != '"' {
		return d.mismatch("string")
	}
	raw, escaped, err := d.str()
	if err != nil {
		return err
	}
	*p = string(unquote(raw, escaped))
	return nil
}

func decodeBool(d *decoder, p *bool) error {
	switch d.data[d.pos] {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

func decodeUint[T uint8 | uint32 | uint64 | BufferKind](d *decoder, p *T) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	c := d.data[d.pos]
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatch("unsigned integer")
	}
	at := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	bits := 8 * unsafe.Sizeof(*p)
	max := uint64(1)<<(bits-1)<<1 - 1
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' || v > (max-uint64(c-'0'))/10 {
			if d.err == nil {
				d.err = fmt.Errorf("cannot decode number %s at offset %d into %d-bit unsigned integer", lit, at, bits)
			}
			return nil
		}
		v = v*10 + uint64(c-'0')
	}
	*p = T(v)
	return nil
}

func decodeInt(d *decoder, p *int) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	c := d.data[d.pos]
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatch("integer")
	}
	at := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	digits, neg := lit, lit[0] == '-'
	if neg {
		digits = lit[1:]
	}
	// Accumulate negatively: the range of int reaches one further below
	// zero than above it.
	const minInt = -1 << (8*unsafe.Sizeof(0) - 1)
	var v int
	for _, c := range digits {
		if c < '0' || c > '9' || v < (minInt+int(c-'0'))/10 {
			v = 1
			break
		}
		v = v*10 - int(c-'0')
	}
	if v > 0 || !neg && v == minInt {
		if d.err == nil {
			d.err = fmt.Errorf("cannot decode number %s at offset %d into integer", lit, at)
		}
		return nil
	}
	if !neg {
		v = -v
	}
	*p = v
	return nil
}

// decodeSlice decodes a JSON array into *p with encoding/json's reuse
// rules: elements are decoded into the slice's existing backing array
// (so a repeated key merges into the earlier elements), the length is
// cut to the element count, and an empty array yields a non-nil empty
// slice. null sets *p to nil.
func decodeSlice[T any](d *decoder, p *[]T, elem func(*decoder, *T) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		if isNull {
			*p = nil
		}
		return err
	}
	if d.data[d.pos] != '[' {
		return d.mismatch("array")
	}
	s, i := *p, 0
	err := d.array(func() error {
		if i == cap(s) {
			var zero T
			s = append(s, zero)
		} else if i == len(s) {
			s = s[:i+1]
		}
		i++
		return elem(d, &s[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		s = make([]T, 0)
	}
	*p = s[:i]
	return nil
}

// decodeBytes decodes a []byte field: a base64 string (as
// encoding/json encodes it), an array of byte values, or null.
func decodeBytes(d *decoder, p *[]byte) error {
	switch d.data[d.pos] {
	case '"':
	case '[', 'n':
		return decodeSlice(d, p, decodeUint[uint8])
	default:
		return d.mismatch("[]byte")
	}
	at := d.pos
	var b []byte
	if raw, ok := d.plainStr(); ok {
		var err error
		if b, err = decodeBase64(raw); err != nil {
			// A control byte is a syntax error, which outranks the
			// base64 one.
			if i := ctrl(raw); i >= 0 {
				d.pos = at + 1 + i
				return d.syntax("in string literal")
			}
			return d.badBase64(at, err)
		}
	} else {
		raw, _, err := d.str()
		if err != nil {
			return err
		}
		s := unquote(raw, true)
		b = make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(b, s)
		if err != nil {
			return d.badBase64(at, err)
		}
		b = b[:n]
	}
	*p = b
	return nil
}

func (d *decoder) badBase64(at int, err error) error {
	if d.err == nil {
		d.err = fmt.Errorf("base64 string at offset %d: %w", at, err)
	}
	return nil
}

// zeroQuads is a block of base64 'A's, each quad of which decodes to
// three zero bytes.
var zeroQuads = bytes.Repeat([]byte{'A'}, 256)

const quadA = 0x41414141 // "AAAA" read as a little-endian word

// decodeBase64 decodes padded standard base64 as base64.StdEncoding.Decode
// would, but steps over aligned runs of "AAAA" instead of decoding them:
// the output starts zeroed, so only the quads between the runs are handed
// to the standard decoder. Control bytes (newlines included, which the
// standard decoder would skip) are an error: src is an unescaped JSON
// string, where they are illegal.
func decodeBase64(src []byte) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, errors.New("base64 length is not a multiple of 4")
	}
	out := make([]byte, len(src)/4*3)
	n := len(out)
	for i := 0; i < len(src); {
		if len(src)-i >= len(zeroQuads) && string(src[i:i+len(zeroQuads)]) == string(zeroQuads) {
			i += len(zeroQuads)
			continue
		}
		if binary.LittleEndian.Uint32(src[i:]) == quadA {
			i += 4
			continue
		}
		j := i + 4
		for j < len(src) && binary.LittleEndian.Uint32(src[j:]) != quadA {
			j += 4
		}
		if ctrl(src[i:j]) >= 0 {
			return nil, errors.New("control byte in base64 data")
		}
		got, err := base64.StdEncoding.Decode(out[i/4*3:], src[i:j])
		if err != nil {
			return nil, err
		}
		if want := (j - i) / 4 * 3; got != want {
			// Padding shortened the output: legal only at the end.
			if j != len(src) {
				return nil, errors.New("base64 padding before the end of the data")
			}
			n -= want - got
		}
		i = j
	}
	return out[:n], nil
}

// The per-type member tables: each struct's JSON names and how a
// member's value decodes into it.

var snapNames = []string{"host", "process", "pid", "runtimeId", "reason", "triggerTid",
	"signal", "faultAddr", "time", "modules", "buffers", "partners", "nondet"}

func (s *Snap) field(d *decoder, key []byte) error {
	switch field(key, snapNames) {
	case "host":
		return decodeString(d, &s.Host)
	case "process":
		return decodeString(d, &s.Process)
	case "pid":
		return decodeInt(d, &s.PID)
	case "runtimeId":
		return decodeUint(d, &s.RuntimeID)
	case "reason":
		return decodeString(d, &s.Reason)
	case "triggerTid":
		return decodeUint(d, &s.TriggerTID)
	case "signal":
		return decodeInt(d, &s.Signal)
	case "faultAddr":
		return decodeUint(d, &s.FaultAddr)
	case "time":
		return decodeUint(d, &s.Time)
	case "modules":
		return decodeSlice(d, &s.Modules, func(d *decoder, m *ModuleInfo) error { return d.object(m.field) })
	case "buffers":
		return decodeSlice(d, &s.Buffers, func(d *decoder, b *BufferDump) error { return d.object(b.field) })
	case "partners":
		return decodeSlice(d, &s.Partners, decodeUint[uint64])
	case "nondet":
		switch d.data[d.pos] {
		case 'n':
			s.Nondet = nil
			return d.literal("null")
		case '{':
			if s.Nondet == nil {
				s.Nondet = new(NondetLog)
			}
			return d.object(s.Nondet.field)
		}
		return d.mismatch("object")
	}
	return d.skip()
}

var moduleNames = []string{"name", "checksum", "dagBase", "dagCount", "codeBase", "codeLen",
	"unloaded", "badDag", "dataBase", "dataDump"}

func (m *ModuleInfo) field(d *decoder, key []byte) error {
	switch field(key, moduleNames) {
	case "name":
		return decodeString(d, &m.Name)
	case "checksum":
		return decodeString(d, &m.Checksum)
	case "dagBase":
		return decodeUint(d, &m.ActualDAGBase)
	case "dagCount":
		return decodeUint(d, &m.DAGCount)
	case "codeBase":
		return decodeUint(d, &m.CodeBase)
	case "codeLen":
		return decodeUint(d, &m.CodeLen)
	case "unloaded":
		return decodeBool(d, &m.Unloaded)
	case "badDag":
		return decodeBool(d, &m.BadDAG)
	case "dataBase":
		return decodeUint(d, &m.DataBase)
	case "dataDump":
		return decodeBytes(d, &m.DataDump)
	}
	return d.skip()
}

var bufferNames = []string{"kind", "ownerTid", "lastPtr", "lastKnown", "committedSub", "subWords", "raw"}

func (b *BufferDump) field(d *decoder, key []byte) error {
	switch field(key, bufferNames) {
	case "kind":
		return decodeUint(d, &b.Kind)
	case "ownerTid":
		return decodeUint(d, &b.OwnerTID)
	case "lastPtr":
		return decodeUint(d, &b.LastPtr)
	case "lastKnown":
		return decodeBool(d, &b.LastKnown)
	case "committedSub":
		return decodeUint(d, &b.CommittedSub)
	case "subWords":
		return decodeUint(d, &b.SubWords)
	case "raw":
		return decodeBytes(d, &b.Raw)
	}
	return d.skip()
}

var nondetNames = []string{"v", "scenario", "wrap", "trial", "interval", "raw"}

func (n *NondetLog) field(d *decoder, key []byte) error {
	switch field(key, nondetNames) {
	case "v":
		return decodeInt(d, &n.V)
	case "scenario":
		return decodeString(d, &n.Scenario)
	case "wrap":
		return decodeBool(d, &n.Wrap)
	case "trial":
		return decodeBool(d, &n.Trial)
	case "interval":
		return decodeUint(d, &n.Interval)
	case "raw":
		return decodeBytes(d, &n.Raw)
	}
	return d.skip()
}
