package ldapclient

import (
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"metacomm/internal/ldap"
)

// TestMessageIDsWrap drives a connection across the end of the message-ID
// range, one request at a time and in a pipeline, against a server that
// records each request's ID and answers it: IDs stay inside RFC 4511's
// 0..2^31-1 (2^31-1 is followed by 1), and every response still matches its
// request.
func TestMessageIDsWrap(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		wg   sync.WaitGroup
		seen []int32
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		rd := ldap.NewReader(nc)
		for {
			m, err := rd.ReadMessage()
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if _, ok := m.Op.(*ldap.UnbindRequest); ok {
				return
			}
			seen = append(seen, m.ID)
			if err := (&ldap.Message{ID: m.ID, Op: &ldap.DeleteResponse{}}).Write(nc); err != nil {
				t.Errorf("server write: %v", err)
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.nextID = math.MaxInt32 - 1
	for i := 0; i < 3; i++ {
		if err := c.Delete("cn=x"); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	c.nextID = math.MaxInt32 - 1
	ops := []ldap.Op{&ldap.DeleteRequest{DN: "a"}, &ldap.DeleteRequest{DN: "b"}, &ldap.DeleteRequest{DN: "c"}}
	for i, r := range c.Pipeline(ops) {
		if r.Err != nil {
			t.Fatalf("pipelined delete %d: %v", i, r.Err)
		}
	}
	c.Close()
	wg.Wait()
	want := []int32{math.MaxInt32 - 1, math.MaxInt32, 1, math.MaxInt32 - 1, math.MaxInt32, 1}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("request IDs = %v, want %v", seen, want)
	}
}
