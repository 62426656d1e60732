package lib

import "testing"

func TestCallers(t *testing.T) {
	if OnlyTests()+Countdown(3)+(&Meter{}).Value()+helper() != 7 {
		t.Fatal("fixture arithmetic")
	}
}
