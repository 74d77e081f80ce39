package harness

import (
	"strings"
	"testing"
)

// TestE5LoadDriverErrorFailsThePoint: a load user whose driver fails stops
// offering load, so the point must fail rather than report a benchmark time
// under less load than its row claims — even though the benchmark itself
// completes.
func TestE5LoadDriverErrorFailsThePoint(t *testing.T) {
	cfg := DefaultE5()
	cfg.Andrew = smallAndrew(5)
	cfg.Drive.UserFiles = 25
	cfg.Drive.SysFiles = 15
	lc, ws, err := e5Cell(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One load station loses its session: the first operation there fails.
	lc.ws[1].Venus.Login("")
	_, _, err = e5Run(cfg, lc, ws)
	if err == nil || !strings.Contains(err.Error(), "driver "+lc.users[1]+": ") {
		t.Fatalf("e5Run = %v, want the failed driver of %s", err, lc.users[1])
	}
}
