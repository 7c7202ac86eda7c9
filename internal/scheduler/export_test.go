package scheduler

// BFSOrderedExecutors exposes rstorm's executor order to the reference
// implementation in the external test package.
var BFSOrderedExecutors = bfsOrderedExecutors
