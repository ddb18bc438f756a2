package vm

// BlockedLock is the status the external tests expect of a thread parked
// on a held lock.
const BlockedLock = blockedLock
