package ann

// RandomCollection exposes the clustered test collection to the
// external test package.
var RandomCollection = randomCollection
