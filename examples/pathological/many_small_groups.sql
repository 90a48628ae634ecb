-- [Many small groups — the reference]
--
-- Students with at least @k registrations. On the university instance
-- every student is a group of two or three registrations, so the group
-- count grows with the instance while each group stays small. An
-- aggregate search that re-evaluated every group per solver model would
-- pay for the whole instance on each check. Paired with
-- many_small_groups_wrong.sql and pinned by
-- crates/ratest/tests/pathological.rs.

SELECT name
FROM Registration
GROUP BY name
HAVING COUNT(*) >= @k
