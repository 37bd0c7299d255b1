//go:build !linux

package ldapserver

import "net"

// parkSet does not exist off Linux: newParkSet returns none, so every
// connection keeps its goroutine while idle.
type parkSet struct{}

func newParkSet() (*parkSet, error) { return nil, nil }

func (*parkSet) add(net.Conn) (int32, error) { panic("ldapserver: no park set") }
func (*parkSet) remove(int32)                {}
func (*parkSet) wait(func([]int32))          {}
func (*parkSet) close()                      {}
