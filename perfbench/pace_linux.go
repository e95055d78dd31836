package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper is the open-loop pacer's wait: a Linux timerfd read through the
// runtime's network poller. The goroutine parks and gives up its P while
// it waits, as with time.Sleep, so the monitor goroutine and the GC get
// the CPU; but the timerfd wakes it within tens of microseconds, where
// time.Sleep's wakeups ride the poller's millisecond timeout and would make
// the generator itself late by most of a millisecond. nanosleep(2) is as
// precise but blocks the thread in a syscall while holding the P, which
// leaves ready goroutines waiting for the scheduler to take it back.
type sleeper struct {
	f  *os.File
	fd uintptr
}

type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep waits for d.
func (s *sleeper) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := s.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("reading timerfd: %w", err)
	}
	return nil
}

func (s *sleeper) Close() error { return s.f.Close() }
