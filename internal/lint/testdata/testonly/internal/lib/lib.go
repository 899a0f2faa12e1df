// Package lib holds every kind of name testonly judges.
package lib

import (
	"container/heap"
	"encoding/json"
	"fmt"
)

// Used is called by cmd/app.
func Used() {
	heap.Init(&queue{})
	var s Sender = Conn{}
	_ = s.Send(1)
	_, _ = json.Marshal(T{})
	fmt.Println(T{})
}

func ExtOnly() {} // called only by the module ext

func TestOnlyFunc() {} // want "exported func TestOnlyFunc"

type Unused struct{} // want "exported type Unused"

const OnlyConst = 1 // want "exported const OnlyConst"

var OnlyVar = 2 // want "exported var OnlyVar"

type T struct{}

func (T) OnlyMethod() {} // want "exported method OnlyMethod"

func (T) String() string { return "T" }

func (T) MarshalJSON() ([]byte, error) { return []byte("{}"), nil }

//lint:ignore testonly fixture shared by the tests of several packages
func Shared() {}

// Sender is satisfied by Conn, whose Send is only called through it.
type Sender interface{ Send(int) error }

type Conn struct{}

func (Conn) Send(int) error { return nil }

type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any          { old := *q; *q = old[:len(old)-1]; return old[len(old)-1] }
