package lib

import "testing"

func TestCallers(t *testing.T) {
	if OnlyTests()+Countdown(3)+(&Meter{}).Value() != 1 {
		t.Fatal("fixture arithmetic")
	}
}
