//go:build linux

package ldapserver

import (
	"errors"
	"net"
	"os"
	"syscall"
)

// parkSet is the server's one epoll set of parked connections. Each parked
// socket is registered for readability; the single goroutine in wait hands
// ready ones back to the server. The epoll descriptor is itself pollable, so
// that goroutine blocks in the Go runtime's poller, not in a thread of its
// own, and closing the set wakes it.
type parkSet struct {
	f    *os.File
	rc   syscall.RawConn
	epfd int
}

func newParkSet() (*parkSet, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("epoll_create1", err)
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, os.NewSyscallError("setnonblock", err)
	}
	f := os.NewFile(uintptr(epfd), "ldapserver-parked")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &parkSet{f: f, rc: rc, epfd: epfd}, nil
}

// add registers nc's socket and returns its descriptor, the key wait reports
// it under. The caller (Server.park, under Server.mu) owns nc, so the
// descriptor stays open and unique until remove or the server closes.
func (p *parkSet) add(nc net.Conn) (int32, error) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return 0, errors.New("not a socket")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, err
	}
	var fd int32
	var cerr error
	if err := rc.Control(func(u uintptr) {
		fd = int32(u)
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: fd}
		cerr = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(u), &ev)
	}); err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, os.NewSyscallError("epoll_ctl", cerr)
	}
	return fd, nil
}

// remove deregisters a woken connection's socket before its goroutine
// starts reading it.
func (p *parkSet) remove(fd int32) {
	// The park set owns the descriptor, registered and open, so this
	// cannot fail.
	_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
}

// wait reports ready descriptors to ready until close. Registrations are
// level-triggered and ready removes each reported descriptor before the next
// epoll_wait, so a wake is never lost and never reported twice.
func (p *parkSet) wait(ready func(fds []int32)) {
	events := make([]syscall.EpollEvent, 128)
	fds := make([]int32, 0, len(events))
	for {
		n := 0
		var werr error
		// The callback polls without blocking; returning false waits in the
		// runtime until the set turns readable again.
		if err := p.rc.Read(func(epfd uintptr) bool {
			n, werr = syscall.EpollWait(int(epfd), events, 0)
			for werr == syscall.EINTR {
				n, werr = syscall.EpollWait(int(epfd), events, 0)
			}
			return n > 0 || werr != nil
		}); err != nil || werr != nil {
			return // closed
		}
		fds = fds[:0]
		for _, ev := range events[:n] {
			fds = append(fds, ev.Fd)
		}
		ready(fds)
	}
}

// close stops wait. Parked sockets still registered leave the set as the
// server closes them.
func (p *parkSet) close() {
	p.f.Close()
}
