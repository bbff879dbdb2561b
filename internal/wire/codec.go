package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"trustedcvs/internal/binenc"
)

// The tag table. Every type that crosses an Encoder — or sits in a
// journal record — is registered under exactly one tag by the package
// that owns it; the ranges keep the owners apart (DESIGN.md
// "Encodings" lists every tag):
//
//	0        nil
//	1        string (tests and examples push bare strings)
//	2–3      this package: ErrorReply, SessionRequest
//	16–34    internal/core: protocol messages, a standalone *merkle.VO
//	48–53    internal/vdb: operations
//	64–69    internal/cvs: operations
//	80–84    internal/broadcast: Message and the hub frames
//	96–97    internal/driver: sync and epoch reports
//	112–119  internal/witness
//	240–255  tests
//
// The numbers are part of the wire and journal formats.
const (
	tagNil     = 0
	tagString  = 1
	tagError   = 2
	tagSession = 3
)

// codec is one row of the tag table. typedAppend and typedRead hold
// the functions Register was given, for AppendTyped and ReadTyped.
type codec struct {
	tag         byte
	typ         reflect.Type
	append      func(b []byte, msg any) ([]byte, error)
	read        func(r *binenc.Reader) any
	typedAppend any
	typedRead   any
}

// byTag and byType index the table. Filled by Register at init time,
// read-only afterwards.
var (
	byTag  [256]*codec
	byType = make(map[reflect.Type]*codec)
)

// Register installs the codec of message type T (the type as it
// travels: *core.OpRequest, core.SyncReportI) under tag. app appends
// the body — no tag — to b; read consumes exactly that body, reporting
// failures through the Reader. Byte fields that read takes with
// ViewBytes are windows onto the frame the message arrived in, valid
// until the next Decode on its Decoder unless the frame is kept
// (Decoder.Keep); a field the message must own past that reads with
// Bytes. Called from package init functions only; a
// reserved or duplicate tag, or a type registered twice, is a
// programming error.
func Register[T any](tag byte, app func(b []byte, msg T) ([]byte, error), read func(r *binenc.Reader) T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if tag == tagNil || byTag[tag] != nil || byType[typ] != nil {
		panic(fmt.Sprintf("wire: tag %d or type %v is reserved or already registered", tag, typ))
	}
	c := &codec{
		tag:         tag,
		typ:         typ,
		append:      func(b []byte, msg any) ([]byte, error) { return app(b, msg.(T)) },
		read:        func(r *binenc.Reader) any { return read(r) },
		typedAppend: app,
		typedRead:   read,
	}
	byTag[tag], byType[typ] = c, c
}

// Registration names one row of the tag table.
type Registration struct {
	Tag  byte
	Type reflect.Type
}

// Registered lists the tag table in tag order.
func Registered() []Registration {
	var out []Registration
	for _, c := range byTag {
		if c != nil {
			out = append(out, Registration{Tag: c.tag, Type: c.typ})
		}
	}
	return out
}

// Append appends msg as tag + body. It is how a message nests inside
// another (an interface-typed field) and inside a journal record; a nil
// msg is the single byte 0. A nil pointer of a registered type is an
// error, as is any unregistered type.
func Append(b []byte, msg any) ([]byte, error) {
	if msg == nil {
		return append(b, tagNil), nil
	}
	c := byType[reflect.TypeOf(msg)]
	if c == nil {
		return nil, fmt.Errorf("wire: %T is not a registered message type", msg)
	}
	if v := reflect.ValueOf(msg); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil, fmt.Errorf("wire: nil %T", msg)
	}
	return c.append(append(b, c.tag), msg)
}

// Read consumes one tag + body. An unknown tag, or nesting deeper than
// any honest message, fails the Reader and reads as nil.
func Read(r *binenc.Reader) any {
	tag := r.Byte()
	if tag == tagNil {
		return nil
	}
	c := byTag[tag]
	if c == nil {
		r.Fail("unknown message tag %d", tag)
		return nil
	}
	if !r.Enter() {
		return nil
	}
	msg := c.read(r)
	r.Leave()
	return msg
}

// AppendTyped is Append for a message whose type the caller knows: the
// same tag + body, written without boxing msg into an interface — what
// a fixed-size value nested in every message of a hot path wants.
func AppendTyped[T any](b []byte, msg T) ([]byte, error) {
	c := byType[reflect.TypeFor[T]()]
	if c == nil {
		return nil, fmt.Errorf("wire: %T is not a registered message type", msg)
	}
	return c.typedAppend.(func([]byte, T) ([]byte, error))(append(b, c.tag), msg)
}

// ReadTyped consumes one tag + body where the enclosing layout allows a
// T or nothing: it reads a T into *dst and reports true, or reports
// false for the nil byte, without boxing the value. Any other tag fails
// the Reader.
func ReadTyped[T any](r *binenc.Reader, dst *T) bool {
	tag := r.Byte()
	if tag == tagNil || r.Err() != nil {
		return false
	}
	c := byType[reflect.TypeFor[T]()]
	if c == nil || c.tag != tag {
		r.Fail("nested message tag %d where a %v belongs", tag, reflect.TypeFor[T]())
		return false
	}
	if !r.Enter() {
		return false
	}
	*dst = c.typedRead.(func(*binenc.Reader) T)(r)
	r.Leave()
	return true
}

// ReadAs consumes one tag + body where the enclosing layout fixes the
// type: anything but a T, nil included, fails the Reader.
func ReadAs[T any](r *binenc.Reader) T {
	msg, ok := Read(r).(T)
	if !ok {
		r.Fail("nested message is not a %T", msg)
	}
	return msg
}

func init() {
	Register(tagString, func(b []byte, s string) ([]byte, error) { return binenc.AppendString(b, s), nil },
		(*binenc.Reader).String)
	Register(tagError, func(b []byte, e *ErrorReply) ([]byte, error) {
		b = binenc.AppendString(b, e.Msg)
		return binary.AppendVarint(b, int64(e.Code)), nil
	}, func(r *binenc.Reader) *ErrorReply {
		return &ErrorReply{Msg: r.String(), Code: int(r.Varint())}
	})
	Register(tagSession, func(b []byte, s *SessionRequest) ([]byte, error) {
		b = binary.AppendUvarint(b, s.SID)
		b = binary.AppendUvarint(b, s.Seq)
		return Append(b, s.Req)
	}, func(r *binenc.Reader) *SessionRequest {
		return &SessionRequest{SID: r.Uvarint(), Seq: r.Uvarint(), Req: Read(r)}
	})
}
