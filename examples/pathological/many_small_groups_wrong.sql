-- [Many small groups — an off-by-one threshold]
--
-- The wrong variant of many_small_groups.sql: `>` where `>=` was meant,
-- so students with exactly @k registrations go missing.

SELECT name
FROM Registration
GROUP BY name
HAVING COUNT(*) > @k
