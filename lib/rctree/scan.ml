let blank c = c = ' ' || c = '\t'
let trimmed c = blank c || c = '\012' || c = '\n' || c = '\r'
let rec eol text i e = if i < e && text.[i] <> '\n' then eol text (i + 1) e else i
let rec index text c i e = if i < e && text.[i] <> c then index text c (i + 1) e else i
let rec trim_start text i e = if i < e && trimmed text.[i] then trim_start text (i + 1) e else i
let rec trim_end text s e = if e > s && trimmed text.[e - 1] then trim_end text s (e - 1) else e
let rec skip_blank text i e = if i < e && blank text.[i] then skip_blank text (i + 1) e else i
let rec token_end text i e = if i < e && not (blank text.[i]) then token_end text (i + 1) e else i
