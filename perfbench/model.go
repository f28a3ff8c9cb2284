package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dlpt"
)

// model is the benchmark's own picture of the catalogue, computed from
// the generated inputs apart from the program: the sorted declared
// keys, each key's endpoint set and the resource table. Every answer
// the overlay gives is checked against it.
type model struct {
	keys        []string            // every declared key, sorted (routines and attribute keys)
	routineKeys []string            // the grid-routine keys alone, sorted
	eps         map[string][]string // key -> sorted endpoints (resource ids under attribute keys)
	resources   map[string]map[string]string
}

func newModel(corpus []dlpt.Registration, resources []dlpt.Resource) *model {
	m := &model{eps: make(map[string][]string), resources: make(map[string]map[string]string)}
	for _, reg := range corpus {
		m.eps[reg.Name] = append(m.eps[reg.Name], reg.Endpoint)
	}
	for k := range m.eps {
		m.routineKeys = append(m.routineKeys, k)
	}
	sort.Strings(m.routineKeys)
	for _, res := range resources {
		m.resources[res.ID] = res.Attributes
		for a, v := range res.Attributes {
			k := attrKey(a, v)
			m.eps[k] = append(m.eps[k], res.ID)
		}
	}
	for k, vs := range m.eps {
		m.eps[k] = slices.Compact(sortedCopy(vs))
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	return m
}

// clone returns a model that the run's writes can advance without
// changing m, which the replay of the same inputs on another engine
// starts from again.
func (m *model) clone() *model {
	c := *m
	c.keys = slices.Clone(m.keys)
	c.eps = make(map[string][]string, len(m.eps))
	for k, v := range m.eps {
		c.eps[k] = v
	}
	c.resources = make(map[string]map[string]string, len(m.resources))
	for id, a := range m.resources {
		c.resources[id] = a
	}
	return &c
}

// add and remove apply one registration change. Endpoint slices are
// copied before they change, since clones share them.
func (m *model) add(key, val string) {
	vs, ok := m.eps[key]
	if !ok {
		i, _ := slices.BinarySearch(m.keys, key)
		m.keys = slices.Insert(m.keys, i, key)
	}
	i, found := slices.BinarySearch(vs, val)
	if !found {
		vs = slices.Insert(slices.Clone(vs), i, val)
	}
	m.eps[key] = vs
}

func (m *model) remove(key, val string) bool {
	vs := m.eps[key]
	i, found := slices.BinarySearch(vs, val)
	if !found {
		return false
	}
	vs = slices.Delete(slices.Clone(vs), i, i+1)
	if len(vs) > 0 {
		m.eps[key] = vs
		return true
	}
	delete(m.eps, key)
	if j, ok := slices.BinarySearch(m.keys, key); ok {
		m.keys = slices.Delete(m.keys, j, j+1)
	}
	return true
}

// addResource and removeResource apply a directory write: the resource
// table changes, and so does the id set under each attribute key.
func (m *model) addResource(res dlpt.Resource) {
	m.resources[res.ID] = res.Attributes
	for a, v := range res.Attributes {
		m.add(attrKey(a, v), res.ID)
	}
}

func (m *model) removeResource(id string) bool {
	attrs, ok := m.resources[id]
	if !ok {
		return false
	}
	delete(m.resources, id)
	for a, v := range attrs {
		m.remove(attrKey(a, v), id)
	}
	return true
}

// complete is the model's answer to a completion: the sorted keys
// extending prefix, at most limit of them (limit <= 0: all).
func (m *model) complete(prefix string, limit int) []string {
	var out []string
	for i := sort.SearchStrings(m.keys, prefix); i < len(m.keys) && strings.HasPrefix(m.keys[i], prefix); i++ {
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, m.keys[i])
	}
	return out
}

// rangeKeys is the model's answer to a range page: the sorted keys in
// [lo, hi], at most limit of them.
func (m *model) rangeKeys(lo, hi string, limit int) []string {
	var out []string
	for i := sort.SearchStrings(m.keys, lo); i < len(m.keys) && m.keys[i] <= hi; i++ {
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, m.keys[i])
	}
	return out
}

// matches is the brute-force test of one resource against a
// conjunction.
func matches(attrs map[string]string, preds []dlpt.Where) bool {
	for _, p := range preds {
		v, ok := attrs[p.Attr]
		switch {
		case !ok:
			return false
		case p.Equals != "":
			if v != p.Equals {
				return false
			}
		case p.HasPrefix != "":
			if !strings.HasPrefix(v, p.HasPrefix) {
				return false
			}
		case p.Max != "":
			if v < p.Min || v > p.Max {
				return false
			}
		}
	}
	return true
}

// find is the model's answer to a conjunctive query: a brute-force
// filter over the resource table, in ascending id order.
func (m *model) find(preds []dlpt.Where) []string {
	var out []string
	for id, attrs := range m.resources {
		if matches(attrs, preds) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// checkEqual reports an error unless got equals want element by
// element.
func checkEqual(what string, got, want []string) error {
	if slices.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: got %d keys %.120q, want %d keys %.120q", what, len(got), got, len(want), want)
}
