-- [Cross product — every join predicate dropped]
--
-- Course question 4 ("students registered for both a CS and an ECON
-- course") with both join conditions and both department filters
-- forgotten: the FROM clause is a three-way cross product of Student and
-- two copies of Registration, so every student appears as soon as the
-- instance has any registration. Each explain annotates |Student| x
-- |Registration|^2 joined rows, and every candidate witness drags
-- registrations (and, through the foreign key, their students) into the
-- solver's input. Pinned by crates/ratest/tests/pathological.rs.

SELECT s.name, s.major
FROM Student s, Registration r1, Registration r2
