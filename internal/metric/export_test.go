package metric

// VectorsInPlace is vectorsInPlace, for the package's external tests.
var VectorsInPlace = vectorsInPlace
