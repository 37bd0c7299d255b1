// Package pbx simulates the Definity PBX of the paper: station records
// administered through a proprietary line-oriented terminal protocol over
// TCP (in the style of the real switch's administration interface), with
// weak typing (every field is a string), atomic single-record updates, no
// transactions, no triggers — and commit-time change notifications on a
// separate monitor connection, which is the hook MetaComm's PBX filter
// attaches to.
//
// The wire protocol:
//
//	login <session>                      -> ok
//	add station <Field> <value> ...      -> ok | error <code> <msg>
//	change station <ext> <Field> <value> ...  (empty value clears a field)
//	remove station <ext>
//	display station <ext>                -> field lines, then end
//	dump                                 -> record lines, then end
//	monitor on                           -> ok, then async notify blocks
//	logout
//
// Notify blocks on a monitor connection:
//
//	notify <add|change|remove> session <name> key <ext>
//	old <Field> <value> ...
//	new <Field> <value> ...
//	end
package pbx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"metacomm/internal/device"
	"metacomm/internal/lexpress"
)

// Fields of a Definity station record. Extension is the key.
var Fields = []string{"Extension", "Name", "COS", "COR", "Room", "Port"}

// KeyField is the station key field.
const KeyField = "Extension"

// DeviceName is the repository name the PBX reports in descriptors.
const DeviceName = "pbx"

// PBX is the simulated switch.
type PBX struct {
	Store *device.Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// New creates a PBX with an empty station store.
func New() *PBX { return NewNamed(DeviceName) }

// NewNamed creates a PBX whose repository name is name — sites with several
// switches (the paper's number-range partitioning, §4.2) run one instance
// per switch, each with its own name and mappings.
func NewNamed(name string) *PBX {
	return &PBX{
		Store: device.NewStore(name, strings.ToLower(KeyField)),
		conns: map[net.Conn]bool{},
	}
}

// Start listens for administration connections on addr.
func (p *PBX) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.listener = l
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.Close()
				return
			}
			p.conns[c] = true
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.serve(c)
			}()
		}
	}()
	return l.Addr(), nil
}

// Addr returns the administration listener's address ("" before Start).
func (p *PBX) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.listener == nil {
		return ""
	}
	return p.listener.Addr().String()
}

// Close shuts the PBX down.
func (p *PBX) Close() {
	p.mu.Lock()
	p.closed = true
	if p.listener != nil {
		p.listener.Close()
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func errorCode(err error) int {
	switch {
	case errors.Is(err, device.ErrNotFound):
		return 1
	case errors.Is(err, device.ErrExists):
		return 2
	case errors.Is(err, device.ErrDown):
		return 4
	default:
		return 5
	}
}

func (p *PBX) serve(nc net.Conn) {
	defer func() {
		nc.Close()
		p.mu.Lock()
		delete(p.conns, nc)
		p.mu.Unlock()
	}()
	r := bufio.NewReader(nc)
	w := bufio.NewWriter(nc)
	session := "anonymous"
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(w, format+"\n", args...)
		return w.Flush() == nil
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields, err := device.SplitFields(strings.TrimRight(line, "\r\n"))
		if err != nil {
			if !reply("error 3 %s", err) {
				return
			}
			continue
		}
		if len(fields) == 0 {
			continue
		}
		switch strings.ToLower(fields[0]) {
		case "login":
			if len(fields) != 2 {
				reply("error 3 login needs a session name")
				continue
			}
			session = fields[1]
			if !reply("ok") {
				return
			}
		case "logout":
			reply("ok")
			return
		case "monitor":
			if len(fields) != 2 || strings.ToLower(fields[1]) != "on" {
				reply("error 3 usage: monitor on")
				continue
			}
			// Subscribe BEFORE acknowledging: a commit made once the client
			// has read "ok" must reach it.
			ch := p.Store.Subscribe()
			if reply("ok") {
				p.monitor(nc, w, ch)
			}
			p.Store.Unsubscribe(ch)
			return
		case "add":
			p.handleAdd(session, fields, reply)
		case "change":
			p.handleChange(session, fields, reply)
		case "remove":
			if len(fields) != 3 || strings.ToLower(fields[1]) != "station" {
				reply("error 3 usage: remove station <ext>")
				continue
			}
			if err := p.Store.Delete(session, fields[2]); err != nil {
				reply("error %d %s", errorCode(err), err)
				continue
			}
			if !reply("ok") {
				return
			}
		case "display":
			if len(fields) != 3 || strings.ToLower(fields[1]) != "station" {
				reply("error 3 usage: display station <ext>")
				continue
			}
			rec, err := p.Store.Get(fields[2])
			if err != nil {
				reply("error %d %s", errorCode(err), err)
				continue
			}
			for _, f := range Fields {
				if v := rec.First(f); v != "" {
					reply("field %s %s", f, device.QuoteField(v))
				}
			}
			if !reply("end") {
				return
			}
		case "dump":
			recs, err := p.Store.Dump()
			if err != nil {
				reply("error %d %s", errorCode(err), err)
				continue
			}
			for _, rec := range recs {
				reply("record %s", encodeFields(rec))
			}
			if !reply("end") {
				return
			}
		default:
			if !reply("error 3 unknown command %q", fields[0]) {
				return
			}
		}
	}
}

func (p *PBX) handleAdd(session string, fields []string, reply func(string, ...any) bool) {
	if len(fields) < 2 || strings.ToLower(fields[1]) != "station" {
		reply("error 3 usage: add station <Field> <value> ...")
		return
	}
	rec, err := decodeFields(fields[2:])
	if err != nil {
		reply("error 3 %s", err)
		return
	}
	if _, err := p.Store.Add(session, rec); err != nil {
		reply("error %d %s", errorCode(err), err)
		return
	}
	reply("ok")
}

func (p *PBX) handleChange(session string, fields []string, reply func(string, ...any) bool) {
	if len(fields) < 3 || strings.ToLower(fields[1]) != "station" {
		reply("error 3 usage: change station <ext> <Field> <value> ...")
		return
	}
	key := fields[2]
	changes, err := decodeFields(fields[3:])
	if err != nil {
		reply("error 3 %s", err)
		return
	}
	old, err := p.Store.Get(key)
	if err != nil {
		reply("error %d %s", errorCode(err), err)
		return
	}
	// Read-modify-write of the listed fields; an empty value clears.
	for _, f := range Fields {
		k := strings.ToLower(f)
		if vs, present := changes[k]; present {
			if len(vs) == 1 && vs[0] == "" {
				old.Set(f)
			} else {
				old.Set(f, vs...)
			}
		}
	}
	if _, err := p.Store.Modify(session, key, old); err != nil {
		reply("error %d %s", errorCode(err), err)
		return
	}
	reply("ok")
}

// decodeFields parses "Field value Field value ..." pairs. A "" value is
// preserved so change can clear fields.
func decodeFields(kv []string) (lexpress.Record, error) {
	if len(kv)%2 != 0 {
		return nil, errors.New("fields must come in name/value pairs")
	}
	rec := lexpress.NewRecord()
	for i := 0; i < len(kv); i += 2 {
		name := kv[i]
		if !validField(name) {
			return nil, fmt.Errorf("unknown field %q", name)
		}
		rec[strings.ToLower(name)] = []string{kv[i+1]}
	}
	return rec, nil
}

func validField(name string) bool {
	for _, f := range Fields {
		if strings.EqualFold(f, name) {
			return true
		}
	}
	return false
}

func encodeFields(rec lexpress.Record) string {
	var parts []string
	for _, f := range Fields {
		if v := rec.First(f); v != "" {
			parts = append(parts, f, device.QuoteField(v))
		}
	}
	return strings.Join(parts, " ")
}

// monitor streams notify blocks to a monitor connection until it drops.
func (p *PBX) monitor(nc net.Conn, w *bufio.Writer, ch <-chan device.Notification) {
	// Drain any input; when the peer (or Close) drops the connection the
	// read fails and done unblocks the notification loop below.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		for {
			if _, err := nc.Read(buf); err != nil {
				nc.Close()
				return
			}
		}
	}()
	for {
		var n device.Notification
		var ok bool
		select {
		case n, ok = <-ch:
			if !ok {
				return
			}
		case <-done:
			return
		}
		var op string
		switch n.Op {
		case lexpress.OpAdd:
			op = "add"
		case lexpress.OpModify:
			op = "change"
		case lexpress.OpDelete:
			op = "remove"
		}
		fmt.Fprintf(w, "notify %s session %s key %s\n", op, device.QuoteField(n.Session), device.QuoteField(n.Key))
		if n.Old != nil {
			fmt.Fprintf(w, "old %s\n", encodeFields(n.Old))
		}
		if n.New != nil {
			fmt.Fprintf(w, "new %s\n", encodeFields(n.New))
		}
		fmt.Fprintln(w, "end")
		if w.Flush() != nil {
			return
		}
	}
}
