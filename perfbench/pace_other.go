//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where timerfd is not available; the
// pacer is then late by the runtime's timer granularity, which the
// reported generator lag shows.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*sleeper) Close() error { return nil }
