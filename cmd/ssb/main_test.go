package main

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
)

func TestParsePin(t *testing.T) {
	for in, want := range map[string]cpu.PinPolicy{
		"cores": cpu.PinCores, "numa": cpu.PinNUMA, "none": cpu.PinNone,
	} {
		if got, err := parsePin(in); err != nil || got != want {
			t.Errorf("parsePin(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "bogus", "NUMA", "core"} {
		if _, err := parsePin(bad); err == nil {
			t.Errorf("parsePin(%q) accepted", bad)
		}
	}
}

func TestParseDevice(t *testing.T) {
	for in, want := range map[string]access.DeviceClass{"pmem": access.PMEM, "dram": access.DRAM} {
		if got, err := parseDevice(in); err != nil || got != want {
			t.Errorf("parseDevice(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ssd", "PMEM"} {
		if _, err := parseDevice(bad); err == nil {
			t.Errorf("parseDevice(%q) accepted", bad)
		}
	}
}
