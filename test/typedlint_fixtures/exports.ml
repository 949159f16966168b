let unreferenced x = x + 1
let used_via_alias x = x * 2
let used_after_open x = x - 1
let ( let* ) = Option.bind
