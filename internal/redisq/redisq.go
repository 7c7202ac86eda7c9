// Package redisq is the Redis-list substrate the paper's Word Count and
// Log Stream topologies consume from: producers RPUSH lines onto named
// lists and spouts LPOP from them. Only the list operations the workloads
// need are implemented.
package redisq

import "sync"

// Server is an in-memory Redis-like list server. It is safe for concurrent
// use (the simulation itself is single-threaded, but tests and examples may
// load queues from other goroutines).
type Server struct {
	mu    sync.Mutex
	lists map[string][]string
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{lists: make(map[string][]string)}
}

// RPush appends values to the tail of the named list and returns the new
// length.
func (s *Server) RPush(key string, vals ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lists[key] = append(s.lists[key], vals...)
	return len(s.lists[key])
}

// LPop removes and returns the head of the named list.
func (s *Server) LPop(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[key]
	if len(l) == 0 {
		return "", false
	}
	v := l[0]
	s.lists[key] = l[1:]
	return v, true
}
