package query

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// relModel is the one-relation model of the tests: inst with the
// visible subset ids (nil = every live tuple).
func relModel(inst *relation.Instance, ids *bitset.Set) DBModel {
	db := relation.NewDatabase()
	if err := db.AddInstance(inst); err != nil {
		panic(err)
	}
	m := DBModel{DB: db}
	if ids != nil {
		m.Subsets = map[string]*bitset.Set{inst.Schema().Name(): ids}
	}
	return m
}
