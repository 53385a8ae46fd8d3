module mana/bench

go 1.21

require mana v0.0.0

replace mana => ../
